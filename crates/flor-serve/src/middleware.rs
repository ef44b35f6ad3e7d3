//! Composable server middleware: auth, per-session admission, request
//! logging into `flor-obs`.
//!
//! A [`Middleware`] sees every request before it executes and how each
//! one ended after ([`Outcome`]: answered, or the error code and
//! message sent). `on_request` can veto with a ready-made
//! [`Response::Error`] — the server sends it and (for auth failures)
//! drops the connection; execution never starts. Middlewares compose as
//! an ordered stack: the first veto wins, and `on_response` runs for
//! every layer.

use crate::protocol::{ErrorCode, Request, Response};
use crate::session::Session;
use flor_obs::{Counter, Histogram, MetricsRegistry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a request ended, as [`Middleware::on_response`] sees it. A
/// middleware reads no result frame, so the server can answer from a
/// frame it shares (a maintained view) without building a [`Response`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome<'a> {
    /// Answered.
    Ok,
    /// Answered with [`Response::Error`].
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: &'a str,
    },
}

/// A server hook. Implement one or both methods.
pub trait Middleware: Send + Sync {
    /// A short stable name used in trace span events ("auth: ok",
    /// "rate-limit: veto", ...).
    fn name(&self) -> &'static str {
        "middleware"
    }

    /// Inspect a request before execution; `Err` short-circuits with
    /// that response.
    fn on_request(&self, _session: &Session, _req: &Request) -> Result<(), Response> {
        Ok(())
    }

    /// Observe a completed request and how it ended.
    fn on_response(
        &self,
        _session: &Session,
        _req: &Request,
        _outcome: Outcome<'_>,
        _elapsed: Duration,
    ) {
    }
}

/// Require a shared-secret token on `Hello`; sessions that presented the
/// wrong (or no) token are refused with [`ErrorCode::Unauthorized`] and
/// disconnected.
#[derive(Debug)]
pub struct AuthToken {
    expected: String,
}

impl AuthToken {
    /// Demand `token` on every handshake.
    pub fn new(token: impl Into<String>) -> AuthToken {
        AuthToken {
            expected: token.into(),
        }
    }
}

impl Middleware for AuthToken {
    fn name(&self) -> &'static str {
        "auth"
    }

    fn on_request(&self, session: &Session, req: &Request) -> Result<(), Response> {
        match req {
            Request::Hello { token, .. } => {
                if token.as_deref() == Some(self.expected.as_str()) {
                    Ok(())
                } else {
                    Err(Response::Error {
                        code: ErrorCode::Unauthorized,
                        message: "bad or missing auth token".into(),
                    })
                }
            }
            // The server refuses non-Hello requests before the handshake,
            // so an authed session here is the normal case.
            _ if session.authed => Ok(()),
            _ => Err(Response::Error {
                code: ErrorCode::Unauthorized,
                message: "handshake required".into(),
            }),
        }
    }
}

/// Per-session token-bucket admission: each session may burst up to
/// `capacity` requests, refilled at `per_sec` per second; excess gets
/// [`ErrorCode::RateLimited`] (the connection stays up — the client is
/// expected to back off and retry).
#[derive(Debug)]
pub struct RateLimit {
    capacity: f64,
    per_sec: f64,
    buckets: Mutex<HashMap<u64, (f64, Instant)>>,
}

impl RateLimit {
    /// Allow bursts of `capacity`, refilling `per_sec` tokens per second.
    pub fn new(capacity: u32, per_sec: u32) -> RateLimit {
        RateLimit {
            capacity: capacity as f64,
            per_sec: per_sec as f64,
            buckets: Mutex::new(HashMap::new()),
        }
    }
}

impl Middleware for RateLimit {
    fn name(&self) -> &'static str {
        "rate-limit"
    }

    fn on_request(&self, session: &Session, req: &Request) -> Result<(), Response> {
        // The handshake itself is admitted free; it is already bounded by
        // the accept pool.
        if matches!(req, Request::Hello { .. }) {
            return Ok(());
        }
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let (tokens, last) = buckets.entry(session.id).or_insert((self.capacity, now));
        *tokens =
            (*tokens + now.duration_since(*last).as_secs_f64() * self.per_sec).min(self.capacity);
        *last = now;
        if *tokens < 1.0 {
            return Err(Response::Error {
                code: ErrorCode::RateLimited,
                message: "per-session rate limit exceeded; retry later".into(),
            });
        }
        *tokens -= 1.0;
        Ok(())
    }
}

/// Record every request into a [`MetricsRegistry`] (normally the one the
/// served `Flor` already writes to, so server traffic shows up next to
/// store/job/view metrics and in the Prometheus scrape):
///
/// * `serve.requests` / `serve.errors` — counters;
/// * `serve.request.nanos` — whole-request latency histogram;
/// * `serve.verb.<verb>` — per-verb counters;
/// * a `serve.error` event per error response, carrying the code.
pub struct RequestLog {
    registry: MetricsRegistry,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    nanos: Arc<Histogram>,
}

impl RequestLog {
    /// Log into `registry`.
    pub fn new(registry: MetricsRegistry) -> RequestLog {
        RequestLog {
            requests: registry.counter("serve.requests"),
            errors: registry.counter("serve.errors"),
            nanos: registry.histogram("serve.request.nanos"),
            registry,
        }
    }
}

impl Middleware for RequestLog {
    fn name(&self) -> &'static str {
        "request-log"
    }

    fn on_response(
        &self,
        session: &Session,
        req: &Request,
        outcome: Outcome<'_>,
        elapsed: Duration,
    ) {
        self.requests.inc();
        self.nanos
            .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        self.registry
            .counter(&format!("serve.verb.{}", req.verb()))
            .inc();
        if let Outcome::Error { code, message } = outcome {
            self.errors.inc();
            self.registry.event_at(
                flor_obs::Level::Warn,
                "serve.error",
                format!("session {} {}: {code} {message}", session.id, req.verb()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_store::Database;

    fn session() -> Session {
        let db = Database::in_memory(flor_store::flor_schema());
        Session::new(1, "test".into(), db.pin())
    }

    #[test]
    fn auth_token_validates_hello() {
        let mw = AuthToken::new("s3cret");
        let sess = session();
        let ok = Request::Hello {
            version: 1,
            token: Some("s3cret".into()),
        };
        assert!(mw.on_request(&sess, &ok).is_ok());
        let bad = Request::Hello {
            version: 1,
            token: Some("nope".into()),
        };
        assert!(matches!(
            mw.on_request(&sess, &bad),
            Err(Response::Error {
                code: ErrorCode::Unauthorized,
                ..
            })
        ));
        let missing = Request::Hello {
            version: 1,
            token: None,
        };
        assert!(mw.on_request(&sess, &missing).is_err());
    }

    #[test]
    fn rate_limit_refuses_past_burst() {
        let mw = RateLimit::new(3, 1);
        let sess = session();
        for _ in 0..3 {
            assert!(mw.on_request(&sess, &Request::Pin).is_ok());
        }
        assert!(matches!(
            mw.on_request(&sess, &Request::Pin),
            Err(Response::Error {
                code: ErrorCode::RateLimited,
                ..
            })
        ));
        // A different session has its own bucket.
        let db = Database::in_memory(flor_store::flor_schema());
        let other = Session::new(2, "test".into(), db.pin());
        assert!(mw.on_request(&other, &Request::Pin).is_ok());
    }

    #[test]
    fn request_log_counts_and_classifies() {
        let reg = MetricsRegistry::new();
        let mw = RequestLog::new(reg.clone());
        let sess = session();
        mw.on_response(&sess, &Request::Pin, Outcome::Ok, Duration::from_micros(5));
        mw.on_response(
            &sess,
            &Request::Epoch,
            Outcome::Error {
                code: ErrorCode::Busy,
                message: "full",
            },
            Duration::from_micros(5),
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.requests"), Some(2));
        assert_eq!(snap.counter("serve.errors"), Some(1));
        assert_eq!(snap.counter("serve.verb.pin"), Some(1));
        assert_eq!(snap.histogram("serve.request.nanos").unwrap().count, 2);
        assert!(snap.events.iter().any(|e| e.kind == "serve.error"));
    }
}
