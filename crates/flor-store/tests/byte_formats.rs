//! The durable byte formats are pinned to what earlier builds left on
//! disk: a WAL and a version-2 sidecar frozen as the commit before the
//! checked-cursor codec wrote them must open here, and the same history
//! written here must come out byte for byte the same — so that build
//! opens these files too.

use flor_df::Value;
use flor_store::checkpoint::sidecar_path;
use flor_store::{ColType, ColumnDef, Database, TableSchema};
use std::path::Path;

fn schemas() -> Vec<TableSchema> {
    vec![
        TableSchema::new(
            "logs",
            vec![
                ColumnDef::new("value_name", ColType::Str),
                ColumnDef::new("tstamp", ColType::Int),
                ColumnDef::new("value", ColType::Any),
            ],
        ),
        TableSchema::new("loops", vec![ColumnDef::new("name", ColType::Str)]),
    ]
}

/// A `logs` row: `value_name` repeats (dictionary-encoded in the
/// sidecar), `value` covers every `Value` variant.
fn log_row(i: i64) -> Vec<Value> {
    let value = match i % 5 {
        0 => Value::Null,
        1 => Value::Bool(i % 2 == 1),
        2 => Value::Int(-i),
        3 => Value::Float(i as f64 / 4.0),
        _ => Value::from(format!("s{i}").as_str()),
    };
    vec![
        Value::from(["loss", "acc"][(i % 2) as usize]),
        Value::Int(i),
        value,
    ]
}

/// Two commits, a checkpoint (sidecar written, log truncated), a third
/// commit and an insert left uncommitted.
fn write_history(wal: &Path) {
    let db = Database::open(wal, schemas()).unwrap();
    for i in 0..6 {
        db.insert("logs", log_row(i)).unwrap();
    }
    db.commit().unwrap();
    db.insert("loops", vec![Value::from("epoch")]).unwrap();
    db.insert("logs", log_row(6)).unwrap();
    db.commit().unwrap();
    db.checkpoint().unwrap();
    for i in 7..10 {
        db.insert("logs", log_row(i)).unwrap();
    }
    db.commit().unwrap();
    db.insert("logs", log_row(10)).unwrap();
}

/// `write_history`'s two files as the parent commit wrote them.
const PARENT_WAL: &str = "0000002be393a91c6c687e0d0a000000000000000300046c6f6773000304000000036163\
    6302000000000000000702fffffffffffffff90000002c211af4502c89407a0a00000000\
    0000000300046c6f6773000304000000046c6f7373020000000000000008034000000000\
    0000000000002943d5211f10cd9e6d0a000000000000000300046c6f6773000304000000\
    03616363020000000000000009040000000273390000000914c181845e02ceb70b000000\
    0000000003000000249b7c0872b12689660a000000000000000400046c6f677300030400\
    0000046c6f737302000000000000000a00";
const PARENT_SIDECAR: &str =
    "464c4f5202b94afdbac3b229b900000000000000020000000000000002000200046c6f67\
    73000000000000000700030100000002000000046c6f7373000000036163630000000000\
    000001000000000000000100000000000000010000000000020000000000000000020000\
    000000000001020000000000000002020000000000000003020000000000000004020000\
    0000000000050200000000000000060000010102fffffffffffffffe033fe80000000000\
    000400000002733400010000056c6f6f7073000000000000000100010004000000056570\
    6f6368";

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn files_from_the_previous_codec_open_here_and_are_rewritten_identically() {
    let dir = std::env::temp_dir().join(format!("flor-byte-formats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Parent → change: the frozen files recover to the committed history.
    let old = dir.join("old.wal");
    std::fs::write(&old, unhex(PARENT_WAL)).unwrap();
    std::fs::write(sidecar_path(&old), unhex(PARENT_SIDECAR)).unwrap();
    let db = Database::open(&old, schemas()).unwrap();
    assert!(db.recovery_info().from_checkpoint);
    let committed: Vec<Vec<Value>> = (0..10).map(log_row).collect();
    assert_eq!(db.scan("logs").unwrap().to_rows(), committed);
    assert_eq!(
        db.scan("loops").unwrap().to_rows(),
        vec![vec![Value::from("epoch")]]
    );
    drop(db);

    // Change → parent: this build writes those very bytes, except the
    // parent's last frame — the uncommitted `log_row(10)` insert, which
    // this build never writes.
    let new = dir.join("new.wal");
    write_history(&new);
    let parent_wal = unhex(PARENT_WAL);
    let mut last_frame = 0;
    while let Some(len) = parent_wal.get(last_frame..last_frame + 4) {
        let next = last_frame + 12 + u32::from_be_bytes(len.try_into().unwrap()) as usize;
        if next == parent_wal.len() {
            break;
        }
        last_frame = next;
    }
    assert_eq!(parent_wal.len() - last_frame, 48);
    assert_eq!(std::fs::read(&new).unwrap(), parent_wal[..last_frame]);
    assert_eq!(
        std::fs::read(sidecar_path(&new)).unwrap(),
        unhex(PARENT_SIDECAR)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
