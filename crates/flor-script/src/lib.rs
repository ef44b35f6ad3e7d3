//! # flor-script — the execution substrate for hindsight logging
//!
//! FlorDB (CIDR 2025) instruments Python programs; a Rust reproduction
//! needs a language it fully controls. florscript is a small, deterministic
//! imperative language purpose-built for the paper's techniques:
//!
//! * **Instrumentation API** — `flor.log`, `flor.arg`, `flor.loop`,
//!   `flor.commit`, `with flor.checkpointing(..)` are first-class syntax,
//!   reported to a pluggable [`FlorRuntime`] (the FlorDB kernel).
//! * **Checkpointable state** — at each checkpoint-loop boundary the
//!   bindings the loop can change serialize to text bit-exactly
//!   ([`value::snapshot_state`]); restored over the state the statements
//!   before the loop rebuild ([`Interpreter::restore`]), they resume
//!   execution as if it had never stopped.
//! * **Replay steering** — a runtime can [`Directive::Skip`] iterations,
//!   [`Directive::Restore`] a checkpoint, [`Directive::ResumeTail`] (run
//!   only the body's last statements from the iteration's own
//!   checkpoint), or [`Directive::Stop`] the program: the primitive moves
//!   behind multiversion hindsight replay.
//! * **Diffable ASTs** — canonical node ids, structural labels and a
//!   round-tripping pretty-printer ([`printer::to_source`]) support
//!   GumTree-style differencing and statement injection in `flor-diff`.
//!
//! ```
//! use flor_script::{parse, Interpreter, NullRuntime};
//! let prog = parse("let x = 1;\nfor e in flor.loop(\"epoch\", range(0, 3)) {\n    x = x * 2;\n}").unwrap();
//! let mut interp = Interpreter::new();
//! interp.run(&prog, &mut NullRuntime).unwrap();
//! assert_eq!(interp.env["x"].as_i64(), Some(8));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod builtins;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod value;

pub use ast::{BinOp, Expr, NodeId, Program, Stmt, StmtPath, UnOp};
pub use interp::{
    Directive, ExecStats, FlorRuntime, Interpreter, LoopFrame, NullRuntime, RtError, RtResult,
};
pub use parser::{parse, ParseError};
pub use printer::to_source;
pub use value::{dataset_from_text, dataset_to_text, snapshot_state, Heap, RtValue};
