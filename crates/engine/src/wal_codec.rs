//! Binary serialization of the write-ahead log.
//!
//! The engine's WAL lives in memory for speed; this module provides the
//! durable form: a length-delimited binary stream that can be written to a
//! file and replayed later, so a database (including every tracking table
//! and therefore the full repair capability) survives process restarts.
//!
//! Format, per record:
//! `[record_len: u32][crc32: u32][lsn: u64][txn: u64][op_tag: u8]
//! [payload...]`, all little-endian. The CRC (IEEE polynomial) covers the
//! record body, so torn or corrupted records are detected rather than
//! replayed. Row values use per-value tagging; schemas serialize their DDL
//! text and are rebuilt through the normal parser.

use std::io::Write;

use crate::error::{EngineError, Result};
use crate::row::{Row, RowId};
use crate::schema::TableSchema;
use crate::table::RowLocation;
use crate::value::{DataType, Value};
use crate::wal::{InternalTxnId, LogOp, LogRecord, Lsn};

/// The reflected IEEE 802.3 CRC-32 tables for slicing-by-8: `CRC_TABLES[0]`
/// is one step for every possible low byte, and `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight input bytes fold
/// into the CRC with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) over `data`, eight bytes per step
/// (slicing-by-8): saving and reopening a log checksums every byte of it.
fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_CREATE: u8 = 4;
const TAG_DROP: u8 = 5;
const TAG_COMMIT: u8 = 6;
const TAG_ABORT: u8 = 7;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(2);
            buf.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(3);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.push(4);
            buf.push(u8::from(*b));
        }
    }
}

fn put_row(buf: &mut Vec<u8>, row: &Row) {
    buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row.values() {
        put_value(buf, v);
    }
}

fn put_loc(buf: &mut Vec<u8>, loc: &RowLocation) {
    buf.extend_from_slice(&loc.page.to_le_bytes());
    buf.extend_from_slice(&(loc.offset as u64).to_le_bytes());
    buf.extend_from_slice(&(loc.len as u64).to_le_bytes());
}

/// Appends the binary form of one record (without the length prefix) to
/// `buf`.
fn encode_record(rec: &LogRecord, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&rec.lsn.0.to_le_bytes());
    buf.extend_from_slice(&rec.txn.0.to_le_bytes());
    match &rec.op {
        LogOp::Insert {
            table,
            rowid,
            row,
            loc,
        } => {
            buf.push(TAG_INSERT);
            put_str(buf, table);
            buf.extend_from_slice(&rowid.0.to_le_bytes());
            put_row(buf, row);
            put_loc(buf, loc);
        }
        LogOp::Delete {
            table,
            rowid,
            row,
            loc,
        } => {
            buf.push(TAG_DELETE);
            put_str(buf, table);
            buf.extend_from_slice(&rowid.0.to_le_bytes());
            put_row(buf, row);
            put_loc(buf, loc);
        }
        LogOp::Update {
            table,
            rowid,
            before,
            after,
            changed,
            loc,
        } => {
            buf.push(TAG_UPDATE);
            put_str(buf, table);
            buf.extend_from_slice(&rowid.0.to_le_bytes());
            put_row(buf, before);
            put_row(buf, after);
            buf.extend_from_slice(&(changed.len() as u32).to_le_bytes());
            for &c in changed {
                buf.extend_from_slice(&(c as u32).to_le_bytes());
            }
            put_loc(buf, loc);
        }
        LogOp::CreateTable { schema } => {
            buf.push(TAG_CREATE);
            put_str(buf, &schema_ddl(schema));
        }
        LogOp::DropTable { name } => {
            buf.push(TAG_DROP);
            put_str(buf, name);
        }
        LogOp::Commit => buf.push(TAG_COMMIT),
        LogOp::Abort => buf.push(TAG_ABORT),
    }
}

/// Renders a schema back to `CREATE TABLE` DDL (types map onto the storage
/// types losslessly for replay purposes).
fn schema_ddl(schema: &TableSchema) -> String {
    let cols: Vec<String> = schema
        .columns
        .iter()
        .map(|c| {
            let ty = match c.ty {
                DataType::Integer => "INTEGER".to_string(),
                DataType::Float => "FLOAT".to_string(),
                DataType::Varchar(Some(n)) => format!("VARCHAR({n})"),
                DataType::Varchar(None) => "TEXT".to_string(),
            };
            let mut s = format!("{} {ty}", c.name);
            if c.not_null {
                s.push_str(" NOT NULL");
            }
            if c.identity {
                s.push_str(" IDENTITY");
            }
            s
        })
        .collect();
    let mut ddl = format!("CREATE TABLE {} ({}", schema.name, cols.join(", "));
    if !schema.primary_key.is_empty() {
        let pk: Vec<&str> = schema
            .primary_key
            .iter()
            .map(|&i| schema.columns[i].name.as_str())
            .collect();
        ddl.push_str(&format!(", PRIMARY KEY ({})", pk.join(", ")));
    }
    ddl.push(')');
    ddl
}

/// Encoded bytes [`write_wal`] gathers before handing them to the writer.
const WRITE_CHUNK: usize = 256 * 1024;

/// Writes the whole log to `w` in the durable format. Every record is
/// encoded into one reused buffer, its length and CRC patched in front of
/// it in place, and the buffer goes to `w` in chunks of about 256 KiB.
///
/// # Errors
///
/// I/O failures.
pub fn write_wal<W: Write>(records: &[LogRecord], mut w: W) -> Result<()> {
    let write_failed = |e: std::io::Error| EngineError::Internal(format!("WAL write failed: {e}"));
    let mut buf = Vec::with_capacity(2 * WRITE_CHUNK);
    for rec in records {
        let start = buf.len();
        buf.extend_from_slice(&[0; 8]);
        encode_record(rec, &mut buf);
        let body = &buf[start + 8..];
        let (len, crc) = (body.len() as u32, crc32(body));
        buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        if buf.len() >= WRITE_CHUNK {
            w.write_all(&buf).map_err(write_failed)?;
            buf.clear();
        }
    }
    w.write_all(&buf).map_err(write_failed)?;
    w.flush()
        .map_err(|e| EngineError::Internal(format!("WAL flush failed: {e}")))?;
    Ok(())
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos + n;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| EngineError::Internal("truncated WAL record".into()))?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?
            .try_into()
            .map_err(|_| EngineError::Internal("WAL slice length mismatch".into()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| EngineError::Internal("invalid UTF-8 in WAL".into()))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(self.f64()?),
            3 => Value::Str(self.str()?),
            4 => Value::Bool(self.u8()? != 0),
            t => return Err(EngineError::Internal(format!("bad value tag {t} in WAL"))),
        })
    }

    fn row(&mut self) -> Result<Row> {
        let n = self.u32()? as usize;
        // A count read from the file reserves no more than the record can
        // hold (a value takes at least one byte): a forged count then fails
        // as a truncated record instead of a giant allocation.
        let mut values = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            values.push(self.value()?);
        }
        Ok(Row(values))
    }

    fn loc(&mut self) -> Result<RowLocation> {
        Ok(RowLocation {
            page: self.u64()?,
            offset: self.u64()? as usize,
            len: self.u64()? as usize,
        })
    }
}

fn decode_record(body: &[u8]) -> Result<LogRecord> {
    let mut c = Cursor { buf: body, pos: 0 };
    let lsn = Lsn(c.u64()?);
    let txn = InternalTxnId(c.u64()?);
    let op = match c.u8()? {
        TAG_INSERT => LogOp::Insert {
            table: c.str()?,
            rowid: RowId(c.u64()?),
            row: c.row()?,
            loc: c.loc()?,
        },
        TAG_DELETE => LogOp::Delete {
            table: c.str()?,
            rowid: RowId(c.u64()?),
            row: c.row()?,
            loc: c.loc()?,
        },
        TAG_UPDATE => {
            let table = c.str()?;
            let rowid = RowId(c.u64()?);
            let before = c.row()?;
            let after = c.row()?;
            let n = c.u32()? as usize;
            let mut changed = Vec::with_capacity(n.min(c.remaining() / 4));
            for _ in 0..n {
                changed.push(c.u32()? as usize);
            }
            LogOp::Update {
                table,
                rowid,
                before,
                after,
                changed,
                loc: c.loc()?,
            }
        }
        TAG_CREATE => {
            let ddl = c.str()?;
            let stmt = resildb_sql::parse_statement(&ddl)
                .map_err(|e| EngineError::Internal(format!("bad DDL in WAL: {e}")))?;
            let resildb_sql::Statement::CreateTable(ct) = stmt else {
                return Err(EngineError::Internal("non-DDL in CREATE record".into()));
            };
            LogOp::CreateTable {
                schema: TableSchema::from_create(&ct)?,
            }
        }
        TAG_DROP => LogOp::DropTable { name: c.str()? },
        TAG_COMMIT => LogOp::Commit,
        TAG_ABORT => LogOp::Abort,
        t => return Err(EngineError::Internal(format!("bad op tag {t} in WAL"))),
    };
    Ok(LogRecord { lsn, txn, op })
}

/// Decodes a durable log previously produced by [`write_wal`], in place.
///
/// # Errors
///
/// A corrupt or truncated log.
pub fn read_wal(bytes: &[u8]) -> Result<Vec<LogRecord>> {
    let mut records = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let len_bytes: [u8; 4] = bytes
            .get(pos..pos + 4)
            .ok_or_else(|| EngineError::Internal("truncated WAL length".into()))?
            .try_into()
            .map_err(|_| EngineError::Internal("truncated WAL length".into()))?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        pos += 4;
        let crc_bytes: [u8; 4] = bytes
            .get(pos..pos + 4)
            .ok_or_else(|| EngineError::Internal("truncated WAL checksum".into()))?
            .try_into()
            .map_err(|_| EngineError::Internal("truncated WAL checksum".into()))?;
        let expected_crc = u32::from_le_bytes(crc_bytes);
        pos += 4;
        let body = bytes
            .get(pos..pos + len)
            .ok_or_else(|| EngineError::Internal("truncated WAL body".into()))?;
        pos += len;
        if crc32(body) != expected_crc {
            return Err(EngineError::Internal(
                "WAL record checksum mismatch (corrupt log)".into(),
            ));
        }
        records.push(decode_record(body)?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Flavor};

    fn sample_records() -> Vec<LogRecord> {
        let db = Database::in_memory(Flavor::Postgres);
        let mut s = db.session();
        s.execute_sql(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(8), f FLOAT, rid INTEGER IDENTITY)",
        )
        .unwrap();
        s.execute_sql("INSERT INTO t (id, v, f) VALUES (1, 'a', 1.5), (2, NULL, -2.0)")
            .unwrap();
        s.execute_sql("UPDATE t SET v = 'z' WHERE id = 1").unwrap();
        s.execute_sql("DELETE FROM t WHERE id = 2").unwrap();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("INSERT INTO t (id, v, f) VALUES (3, 'x', 0.0)")
            .unwrap();
        s.execute_sql("ROLLBACK").unwrap();
        db.wal_records()
    }

    #[test]
    fn round_trips_every_record_kind() {
        let records = sample_records();
        assert!(records.len() >= 8);
        let mut buf = Vec::new();
        write_wal(&records, &mut buf).unwrap();
        let decoded = read_wal(&buf[..]).unwrap();
        assert_eq!(records, decoded);
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let records = sample_records();
        let mut buf = Vec::new();
        write_wal(&records, &mut buf).unwrap();
        for cut in [1, 3, buf.len() / 2, buf.len() - 1] {
            assert!(read_wal(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_stream_is_an_empty_log() {
        assert_eq!(read_wal(&[][..]).unwrap(), Vec::new());
    }

    #[test]
    fn any_single_flipped_byte_is_detected() {
        let records = sample_records();
        let mut clean = Vec::new();
        write_wal(&records, &mut clean).unwrap();
        // Flip each byte in turn (sampled for speed) — every corruption
        // must surface as an error or decode to different records, never
        // silently reproduce the original log.
        for i in (0..clean.len()).step_by(7) {
            let mut buf = clean.clone();
            buf[i] ^= 0xA5;
            match read_wal(&buf[..]) {
                Err(_) => {}
                Ok(decoded) => assert_ne!(decoded, records, "undetected corruption at byte {i}"),
            }
        }
    }

    /// The bit-by-bit definition [`crc32`] must agree with.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc_reference_vector() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn table_crc_agrees_with_the_bitwise_definition() {
        // xorshift: any fixed stream of buffers of every small length.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut buf = Vec::new();
        for len in 0..600 {
            buf.clear();
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                buf.push(x as u8);
            }
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "length {len}");
        }
    }

    /// Length and FNV-1a of `write_wal(sample_records())`.
    const PIN_LEN: usize = 684;
    const PIN_HASH: u64 = 0xD3B4_BCDA_14CF_09B5;

    /// FNV-1a (64-bit) of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    #[test]
    fn durable_format_does_not_move() {
        // Logs saved by one build must reopen in every other: the exact
        // bytes of a fixed log are pinned (length and FNV-1a).
        let mut buf = Vec::new();
        write_wal(&sample_records(), &mut buf).unwrap();
        assert_eq!((buf.len(), fnv1a(&buf)), (PIN_LEN, PIN_HASH));
    }

    /// Frames `body` as one record: length, CRC, body.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(body).to_le_bytes());
        buf.extend_from_slice(body);
        buf
    }

    #[test]
    fn forged_counts_fail_without_reserving_them() {
        // CRC-valid records whose element counts claim u32::MAX entries
        // must fail as truncated, not reserve ~128 GiB up front.
        let mut head = Vec::new();
        head.extend_from_slice(&1u64.to_le_bytes()); // lsn
        head.extend_from_slice(&1u64.to_le_bytes()); // txn
        let mut insert = head.clone();
        insert.push(TAG_INSERT);
        put_str(&mut insert, "t");
        insert.extend_from_slice(&1u64.to_le_bytes()); // rowid
        insert.extend_from_slice(&u32::MAX.to_le_bytes()); // row arity
        insert.push(0); // one NULL
        assert!(read_wal(&framed(&insert)[..]).is_err());
        let mut update = head;
        update.push(TAG_UPDATE);
        put_str(&mut update, "t");
        update.extend_from_slice(&1u64.to_le_bytes()); // rowid
        put_row(&mut update, &Row(vec![Value::Int(1)])); // before
        put_row(&mut update, &Row(vec![Value::Int(2)])); // after
        update.extend_from_slice(&u32::MAX.to_le_bytes()); // changed count
        update.extend_from_slice(&0u32.to_le_bytes()); // one index
        assert!(read_wal(&framed(&update)[..]).is_err());
    }

    #[test]
    fn schema_ddl_round_trips_identity_and_pk() {
        let db = Database::in_memory(Flavor::Sybase);
        let mut s = db.session();
        s.execute_sql(
            "CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR(4), rid INTEGER IDENTITY, \
             PRIMARY KEY (a))",
        )
        .unwrap();
        let records = db.wal_records();
        let mut buf = Vec::new();
        write_wal(&records, &mut buf).unwrap();
        let decoded = read_wal(&buf[..]).unwrap();
        let LogOp::CreateTable { schema } = &decoded[0].op else {
            panic!("first record should be the CREATE");
        };
        assert_eq!(schema.primary_key, vec![0]);
        assert_eq!(schema.identity_column(), Some(2));
        assert!(schema.columns[0].not_null);
    }
}
