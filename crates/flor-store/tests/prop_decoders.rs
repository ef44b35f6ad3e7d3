//! Decoder robustness as a property: every durable byte format the store
//! reads — WAL record payloads, version-2 and version-1 checkpoint
//! sidecars — round-trips, fails *typed* on every strict prefix, and
//! survives every single-byte mutation without panicking or allocating
//! more than a constant multiple of the input ([`flor_store::codec`]'s
//! cursor and `count` rule are what make that hold by construction).

use flor_df::Value;
use flor_store::checkpoint::{decode_checkpoint, encode_checkpoint, CheckpointData};
use flor_store::codec::{
    decode_payload, encode_record, encode_row, fnv1a, Put, WalRecord, FRAME_HEADER_BYTES,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting what each thread asks of it.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a `const`-initialised,
// destructor-free thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size()));
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + new_size));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What a decode may request per input byte, plus a floor for error
/// strings and first vector growths. The factor is the in-memory cost of
/// the cheapest cell: a one-byte null becomes a 24-byte `Value` in a
/// column vector, again in a row vector that starts at four slots. The
/// point is that it is a constant — a count lifted from the input used to
/// size allocations with no bound at all.
const ALLOC_PER_BYTE: usize = 256;
const ALLOC_FLOOR: usize = 16 << 10;

/// The three properties, for one valid encoding `bytes` of `want`.
/// `reseal` repairs whatever checksum guards the bytes after a mutation,
/// so the mutation reaches the decoder rather than the checksum.
fn check_decoder<T: PartialEq + std::fmt::Debug, E: std::fmt::Debug>(
    bytes: &[u8],
    want: &T,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    reseal: impl Fn(&mut [u8]),
) {
    assert_eq!(&decode(bytes).expect("valid encoding decodes"), want);
    for cut in 0..bytes.len() {
        let mut prefix = bytes[..cut].to_vec();
        reseal(&mut prefix);
        assert!(decode(&prefix).is_err(), "prefix of {cut} bytes decoded");
    }
    let budget = ALLOC_PER_BYTE * bytes.len() + ALLOC_FLOOR;
    let mut mutated = bytes.to_vec();
    for at in 0..bytes.len() {
        for mask in [0x01, 0x80, 0xff] {
            mutated[at] ^= mask;
            reseal(&mut mutated);
            let before = REQUESTED.with(Cell::get);
            let _ = decode(&mutated); // Ok or Err; a panic fails the test
            let spent = REQUESTED.with(Cell::get) - before;
            assert!(
                spent <= budget,
                "byte {at} ^ {mask:#x}: decode requested {spent} bytes for a {}-byte input",
                bytes.len()
            );
            mutated.copy_from_slice(bytes);
        }
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float), // raw bit patterns: NaNs included
        "[ -~]{0,12}".prop_map(Value::from),
        Just(Value::from("世界")),
    ]
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (
            any::<u64>(),
            "[a-z_]{0,8}",
            proptest::collection::vec(arb_value(), 0..6)
        )
            .prop_map(|(txn, table, row)| WalRecord::Insert { txn, table, row }),
        any::<u64>().prop_map(|txn| WalRecord::Commit { txn }),
    ]
}

/// A table of uniform arity (1–3 columns). Each generated cell carries a
/// free value and a value from a three-string-or-null pool; a column
/// flagged `pooled` takes the latter, so it repeats enough to be
/// dictionary-encoded, the others stay plain.
fn arb_table() -> impl Strategy<Value = (String, Vec<Vec<Value>>)> {
    let pooled = prop_oneof![
        Just(Value::Null),
        Just(Value::from("loss")),
        Just(Value::from("acc")),
        Just(Value::from("")),
    ];
    (
        "[a-z]{0,6}",
        1usize..4,
        proptest::collection::vec(any::<bool>(), 3),
        proptest::collection::vec((arb_value(), pooled), 0..40),
    )
        .prop_map(|(name, n_cols, pooled_col, cells)| {
            let rows = cells
                .chunks_exact(n_cols)
                .map(|row| {
                    row.iter()
                        .zip(&pooled_col)
                        .map(|((free, pool), &p)| if p { pool.clone() } else { free.clone() })
                        .collect()
                })
                .collect();
            (name, rows)
        })
}

fn arb_checkpoint() -> impl Strategy<Value = CheckpointData> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(arb_table(), 0..4),
    )
        .prop_map(|(epoch, max_txn, tables)| CheckpointData {
            epoch,
            max_txn,
            tables,
        })
}

/// `data` in the retired version-1 (row-major) layout, which the reader
/// still accepts.
fn v1_blob(data: &CheckpointData) -> Vec<u8> {
    let mut body = Vec::new();
    body.put_u64(data.epoch);
    body.put_u64(data.max_txn);
    body.put_u16(data.tables.len() as u16);
    for (name, rows) in &data.tables {
        body.put_u16(name.len() as u16);
        body.extend_from_slice(name.as_bytes());
        body.put_u64(rows.len() as u64);
        for row in rows {
            encode_row(row, &mut body);
        }
    }
    let mut out = 0x464C_4F52u32.to_be_bytes().to_vec();
    out.push(1);
    out.put_u64(fnv1a(&body));
    out.extend_from_slice(&body);
    out
}

/// Recompute a sidecar's body checksum in place (a blob too short to
/// hold one is left alone — the header parser refuses it anyway).
fn reseal_sidecar(blob: &mut [u8]) {
    if let Some((head, body)) = blob.split_at_mut_checked(13) {
        head[5..].copy_from_slice(&fnv1a(body).to_be_bytes());
    }
}

proptest! {
    #[test]
    fn wal_payloads_decode_or_fail_typed(rec in arb_record()) {
        let frame = encode_record(&rec);
        check_decoder(&frame[FRAME_HEADER_BYTES..], &rec, decode_payload, |_| {});
    }

    #[test]
    fn sidecars_decode_or_fail_typed(data in arb_checkpoint()) {
        let v2 = encode_checkpoint(&data).unwrap();
        check_decoder(&v2, &data, |b| decode_checkpoint(b), reseal_sidecar);
        check_decoder(&v1_blob(&data), &data, |b| decode_checkpoint(b), reseal_sidecar);
    }
}
