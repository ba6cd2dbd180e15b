//! The `killi-diestore/v1` streaming die store.
//!
//! A campaign over 10,000+ dies cannot hold every fault map in memory —
//! a die is `lines x 560` cells across a whole voltage grid. The store
//! serializes each die as a *sparse grid-folded record*: one entry per
//! cell that is faulty anywhere on the grid, carrying a 64-bit mask
//! whose bit `i` says "faulty at grid point `i`" (the grid is sorted
//! ascending, so for voltage-nested models the mask is a prefix of
//! ones). The die's fault population at every grid point reconstructs
//! exactly by masking, which is all the campaign's admissibility rules
//! need.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! magic   "killi-diestore/v1\n"
//! header  root_seed u64 | lines u32 | grid_len u32 | grid f64-bits...
//!         | label_len u32 | fault-model label | dies u32
//! records per die: seed u64 | entry_count u32 | entries
//!         entry: line u32 | cell u16 | stuck u8 | pad u8 | mask u64
//! index   per die: absolute record offset u64
//! footer  index_offset u64 | checksum u64 | "kds1end\n"
//! ```
//!
//! The format is write-once append: records stream out one die at a
//! time in die order, and the index + footer land at the end, so a
//! build never seeks. The writer streams into a sibling temporary file
//! (`<name>.partial-<pid>`) and renames it over the store path only once
//! the footer is written and synced, so the path holds a sealed store or
//! nothing: a build that fails or unwinds removes its temporary file,
//! and a killed process leaves only that file behind. A file without a
//! valid footer still fails to open cleanly. The checksum is FNV-1a over
//! the header and index bytes — the metadata that, if corrupted, would
//! silently misdirect reads; record payloads are instead validated
//! structurally on every read (sorted entries, in-range cells, masks
//! inside the grid).

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Leading magic of a `killi-diestore/v1` file.
pub const STORE_MAGIC: &[u8; 18] = b"killi-diestore/v1\n";
/// Trailing magic sealing a completely written store.
pub const STORE_TAIL: &[u8; 8] = b"kds1end\n";
/// Grid masks are 64-bit, so a store grid holds at most 64 points.
pub const MAX_GRID_POINTS: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Why a store could not be written or read.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The bytes are not a valid `killi-diestore/v1` store.
    Format {
        /// What is wrong.
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "die store I/O error: {e}"),
            StoreError::Format { reason } => write!(f, "invalid die store: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

fn format_err<T>(reason: impl Into<String>) -> Result<T, StoreError> {
    Err(StoreError::Format {
        reason: reason.into(),
    })
}

/// The campaign identity a store is built for. Two stores with equal
/// metadata and equal root seeds hold byte-identical records, so a
/// campaign can safely reuse any store whose metadata matches its
/// config (a larger die count serves a smaller campaign: die `i`'s seed
/// depends only on the root seed and `i`).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMeta {
    /// Root seed die seeds derive from.
    pub root_seed: u64,
    /// Cache lines per die.
    pub lines: u32,
    /// Ascending voltage grid (at most [`MAX_GRID_POINTS`] points).
    pub grid: Vec<f64>,
    /// Canonical fault-model label the records were drawn from.
    pub fault_model: String,
    /// Number of die records.
    pub dies: u32,
}

impl StoreMeta {
    fn validate(&self) -> Result<(), StoreError> {
        if self.grid.len() < 2 || self.grid.len() > MAX_GRID_POINTS {
            return format_err(format!(
                "grid must have 2..={MAX_GRID_POINTS} points, got {}",
                self.grid.len()
            ));
        }
        if !self.grid.windows(2).all(|w| w[0] < w[1]) {
            return format_err("grid must be strictly ascending");
        }
        if self.dies == 0 {
            return format_err("a store needs at least one die");
        }
        if self.lines == 0 {
            return format_err("a die needs at least one line");
        }
        if self.fault_model.len() > 4096 {
            return format_err("fault-model label too long");
        }
        Ok(())
    }
}

/// One sparse grid-folded cell fault of a die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DieEntry {
    /// Line index within the die.
    pub line: u32,
    /// Cell index within the line.
    pub cell: u16,
    /// Stuck-at polarity at the lowest grid point where the cell fails.
    /// Admissibility depends only on fault *presence*, so a polarity
    /// that varies across a non-nested model's redraws is folded here
    /// without affecting any campaign result.
    pub stuck: bool,
    /// Bit `i` set = faulty at grid point `i` (ascending grid order).
    pub mask: u64,
}

/// One die's record: its derived seed plus all grid-folded faults,
/// sorted by `(line, cell)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DieRecord {
    /// The die's derived seed (stored for integrity checking).
    pub seed: u64,
    /// Sparse fault entries, strictly sorted by `(line, cell)`.
    pub entries: Vec<DieEntry>,
}

fn validate_record(meta: &StoreMeta, rec: &DieRecord) -> Result<(), StoreError> {
    let grid_mask_limit = if meta.grid.len() == 64 {
        u64::MAX
    } else {
        (1u64 << meta.grid.len()) - 1
    };
    let mut prev: Option<(u32, u16)> = None;
    for e in &rec.entries {
        if e.line >= meta.lines {
            return format_err(format!("entry line {} out of range", e.line));
        }
        if e.cell >= killi_fault::map::layout::CELLS_PER_LINE {
            return format_err(format!("entry cell {} out of range", e.cell));
        }
        if e.mask == 0 || e.mask & !grid_mask_limit != 0 {
            return format_err(format!("entry mask {:#x} outside the grid", e.mask));
        }
        if let Some(p) = prev {
            if (e.line, e.cell) <= p {
                return format_err("entries not strictly sorted by (line, cell)");
            }
        }
        prev = Some((e.line, e.cell));
    }
    Ok(())
}

fn u32_of(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

fn u64_of(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Serializes the header into bytes (shared by writer and the reader's
/// checksum recomputation).
fn header_bytes(meta: &StoreMeta) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + meta.fault_model.len() + 8 * meta.grid.len());
    out.extend_from_slice(STORE_MAGIC);
    out.extend_from_slice(&meta.root_seed.to_le_bytes());
    out.extend_from_slice(&meta.lines.to_le_bytes());
    out.extend_from_slice(&(meta.grid.len() as u32).to_le_bytes());
    for &v in &meta.grid {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(meta.fault_model.len() as u32).to_le_bytes());
    out.extend_from_slice(meta.fault_model.as_bytes());
    out.extend_from_slice(&meta.dies.to_le_bytes());
    out
}

/// Streaming write-once store builder: append dies in order, then
/// [`DieStoreWriter::finish`] seals index and footer and moves the store
/// to its path. A writer dropped before `finish` succeeds removes what it
/// wrote.
#[derive(Debug)]
pub struct DieStoreWriter {
    out: BufWriter<File>,
    /// The store path, written only by the final rename.
    path: PathBuf,
    /// The sibling temporary file the store is streamed into.
    partial: PathBuf,
    finished: bool,
    meta: StoreMeta,
    offsets: Vec<u64>,
    pos: u64,
    hash: u64,
}

impl DieStoreWriter {
    /// Starts a store for `path`: creates its temporary sibling and
    /// writes the header there.
    pub fn create(path: &Path, meta: StoreMeta) -> Result<Self, StoreError> {
        meta.validate()?;
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".partial-{}", std::process::id()));
        let partial = path.with_file_name(name);
        let mut writer = DieStoreWriter {
            out: BufWriter::new(File::create(&partial)?),
            path: path.to_path_buf(),
            partial,
            finished: false,
            pos: 0,
            hash: FNV_OFFSET,
            offsets: Vec::with_capacity(meta.dies as usize),
            meta,
        };
        let header = header_bytes(&writer.meta);
        writer.out.write_all(&header)?;
        writer.pos = header.len() as u64;
        writer.hash = fnv1a(FNV_OFFSET, &header);
        Ok(writer)
    }

    /// Appends the next die record (records must arrive in die order).
    pub fn append(&mut self, rec: &DieRecord) -> Result<(), StoreError> {
        if self.offsets.len() >= self.meta.dies as usize {
            return format_err(format!("store already holds {} dies", self.meta.dies));
        }
        validate_record(&self.meta, rec)?;
        self.offsets.push(self.pos);
        let mut buf = Vec::with_capacity(12 + 16 * rec.entries.len());
        buf.extend_from_slice(&rec.seed.to_le_bytes());
        buf.extend_from_slice(&(rec.entries.len() as u32).to_le_bytes());
        for e in &rec.entries {
            buf.extend_from_slice(&e.line.to_le_bytes());
            buf.extend_from_slice(&e.cell.to_le_bytes());
            buf.push(e.stuck as u8);
            buf.push(0);
            buf.extend_from_slice(&e.mask.to_le_bytes());
        }
        self.out.write_all(&buf)?;
        self.pos += buf.len() as u64;
        Ok(())
    }

    /// Writes index and footer and renames the store into place;
    /// returns the total file size in bytes.
    pub fn finish(mut self) -> Result<u64, StoreError> {
        if self.offsets.len() != self.meta.dies as usize {
            return format_err(format!(
                "store declared {} dies but {} were appended",
                self.meta.dies,
                self.offsets.len()
            ));
        }
        let index_offset = self.pos;
        let mut index = Vec::with_capacity(8 * self.offsets.len());
        for &off in &self.offsets {
            index.extend_from_slice(&off.to_le_bytes());
        }
        let checksum = fnv1a(self.hash, &index);
        self.out.write_all(&index)?;
        self.out.write_all(&index_offset.to_le_bytes())?;
        self.out.write_all(&checksum.to_le_bytes())?;
        self.out.write_all(STORE_TAIL)?;
        self.out.flush()?;
        // On disk before it has the store's name, so that not even a
        // power loss can leave a truncated store at the path.
        self.out.get_ref().sync_all()?;
        std::fs::rename(&self.partial, &self.path)?;
        self.finished = true;
        Ok(index_offset + index.len() as u64 + 24)
    }
}

impl Drop for DieStoreWriter {
    fn drop(&mut self) {
        if !self.finished {
            // Best effort: the store path itself was never written.
            let _ = std::fs::remove_file(&self.partial);
        }
    }
}

/// Random-access reader over a sealed store. Campaigns read dies in
/// order, one chunk at a time, so peak memory stays bounded by the
/// chunk size, never the die count.
#[derive(Debug)]
pub struct DieStoreReader {
    file: File,
    meta: StoreMeta,
    offsets: Vec<u64>,
    records_end: u64,
}

impl DieStoreReader {
    /// Opens a store, validating magic, footer, index bounds and the
    /// header+index checksum.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::open(path)?;
        let file_len = file.seek(SeekFrom::End(0))?;

        // Header.
        file.seek(SeekFrom::Start(0))?;
        let mut magic = [0u8; 18];
        let mut fixed = [0u8; 16];
        read_exact_or(&mut file, &mut magic, "truncated magic")?;
        if &magic != STORE_MAGIC {
            return format_err("bad magic (not a killi-diestore/v1 file)");
        }
        read_exact_or(&mut file, &mut fixed, "truncated header")?;
        let root_seed = u64_of(&fixed[0..8]);
        let lines = u32_of(&fixed[8..12]);
        let grid_len = u32_of(&fixed[12..16]) as usize;
        if !(2..=MAX_GRID_POINTS).contains(&grid_len) {
            return format_err(format!("grid_len {grid_len} outside 2..={MAX_GRID_POINTS}"));
        }
        let mut grid_bytes = vec![0u8; 8 * grid_len];
        read_exact_or(&mut file, &mut grid_bytes, "truncated grid")?;
        let grid: Vec<f64> = grid_bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64_of(c)))
            .collect();
        let mut len4 = [0u8; 4];
        read_exact_or(&mut file, &mut len4, "truncated label length")?;
        let label_len = u32_of(&len4) as usize;
        if label_len > 4096 {
            return format_err("fault-model label too long");
        }
        let mut label = vec![0u8; label_len];
        read_exact_or(&mut file, &mut label, "truncated label")?;
        let Ok(fault_model) = String::from_utf8(label) else {
            return format_err("fault-model label is not UTF-8");
        };
        read_exact_or(&mut file, &mut len4, "truncated die count")?;
        let dies = u32_of(&len4);
        let meta = StoreMeta {
            root_seed,
            lines,
            grid,
            fault_model,
            dies,
        };
        meta.validate()?;
        let header_end = file.stream_position()?;

        // Footer.
        if file_len < header_end + 24 {
            return format_err("file too short for a footer (unfinished build?)");
        }
        file.seek(SeekFrom::End(-24))?;
        let mut footer = [0u8; 24];
        read_exact_or(&mut file, &mut footer, "truncated footer")?;
        if &footer[16..24] != STORE_TAIL {
            return format_err("missing tail magic (unfinished build?)");
        }
        let index_offset = u64_of(&footer[0..8]);
        let checksum = u64_of(&footer[8..16]);
        let index_len = 8u64 * dies as u64;
        // The offset is read from the file: a hostile one must not wrap.
        let index_end = index_offset
            .checked_add(index_len)
            .and_then(|end| end.checked_add(24));
        if index_offset < header_end || index_end != Some(file_len) {
            return format_err("index offset inconsistent with file size");
        }

        // Index + checksum.
        file.seek(SeekFrom::Start(index_offset))?;
        let mut index = vec![0u8; index_len as usize];
        read_exact_or(&mut file, &mut index, "truncated index")?;
        if fnv1a(fnv1a(FNV_OFFSET, &header_bytes(&meta)), &index) != checksum {
            return format_err("header/index checksum mismatch");
        }
        let offsets: Vec<u64> = index.chunks_exact(8).map(u64_of).collect();
        for (i, w) in offsets.windows(2).enumerate() {
            if w[0] >= w[1] {
                return format_err(format!("index not strictly increasing at die {i}"));
            }
        }
        if let (Some(&first), Some(&last)) = (offsets.first(), offsets.last()) {
            // The last record's 12-byte head must end by the index.
            let room = index_offset.checked_sub(last);
            if first != header_end || room.is_none_or(|room| room < 12) {
                return format_err("index offsets outside the record region");
            }
        }

        Ok(DieStoreReader {
            file,
            meta,
            offsets,
            records_end: index_offset,
        })
    }

    /// The store's identity metadata.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Reads die `i`'s record, validating its structure.
    pub fn read_die(&mut self, i: usize) -> Result<DieRecord, StoreError> {
        let Some(&offset) = self.offsets.get(i) else {
            return format_err(format!("die {i} out of range ({} dies)", self.meta.dies));
        };
        let end = self.offsets.get(i + 1).copied().unwrap_or(self.records_end);
        self.file.seek(SeekFrom::Start(offset))?;
        let mut head = [0u8; 12];
        read_exact_or(&mut self.file, &mut head, "truncated record head")?;
        let seed = u64_of(&head[0..8]);
        let count = u32_of(&head[8..12]) as u64;
        if offset + 12 + 16 * count != end {
            return format_err(format!("die {i} record length inconsistent with index"));
        }
        let mut body = vec![0u8; (16 * count) as usize];
        read_exact_or(&mut self.file, &mut body, "truncated record body")?;
        let entries: Vec<DieEntry> = body
            .chunks_exact(16)
            .map(|c| DieEntry {
                line: u32_of(&c[0..4]),
                cell: u16::from_le_bytes(c[4..6].try_into().expect("2 bytes")),
                stuck: c[6] != 0,
                mask: u64_of(&c[8..16]),
            })
            .collect();
        let rec = DieRecord { seed, entries };
        validate_record(&self.meta, &rec)?;
        Ok(rec)
    }
}

fn read_exact_or(file: &mut File, buf: &mut [u8], what: &str) -> Result<(), StoreError> {
    file.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Format {
                reason: what.to_string(),
            }
        } else {
            StoreError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("killi-vmin-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn meta(dies: u32) -> StoreMeta {
        StoreMeta {
            root_seed: 42,
            lines: 128,
            grid: vec![0.6, 0.625, 0.65],
            fault_model: "stuck-at".to_string(),
            dies,
        }
    }

    fn record(seed: u64) -> DieRecord {
        DieRecord {
            seed,
            entries: vec![
                DieEntry {
                    line: 0,
                    cell: 3,
                    stuck: true,
                    mask: 0b111,
                },
                DieEntry {
                    line: 0,
                    cell: 512,
                    stuck: false,
                    mask: 0b001,
                },
                DieEntry {
                    line: 77,
                    cell: 10,
                    stuck: false,
                    mask: 0b011,
                },
            ],
        }
    }

    #[test]
    fn round_trips_records_exactly() {
        let path = tmp("roundtrip.kds");
        let mut w = DieStoreWriter::create(&path, meta(3)).unwrap();
        let records = [
            record(1),
            DieRecord {
                seed: 2,
                entries: Vec::new(),
            },
            record(3),
        ];
        for r in &records {
            w.append(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());

        let mut r = DieStoreReader::open(&path).unwrap();
        assert_eq!(r.meta(), &meta(3));
        for (i, expected) in records.iter().enumerate() {
            assert_eq!(&r.read_die(i).unwrap(), expected, "die {i}");
        }
        // Reads are random-access and repeatable.
        assert_eq!(&r.read_die(0).unwrap(), &records[0]);
        assert!(r.read_die(3).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_malformed_records_and_counts() {
        let path = tmp("reject.kds");
        let mut w = DieStoreWriter::create(&path, meta(1)).unwrap();
        // Unsorted entries.
        let bad = DieRecord {
            seed: 1,
            entries: vec![
                DieEntry {
                    line: 1,
                    cell: 0,
                    stuck: false,
                    mask: 1,
                },
                DieEntry {
                    line: 0,
                    cell: 0,
                    stuck: false,
                    mask: 1,
                },
            ],
        };
        assert!(matches!(w.append(&bad), Err(StoreError::Format { .. })));
        // Mask outside the 3-point grid.
        let bad = DieRecord {
            seed: 1,
            entries: vec![DieEntry {
                line: 0,
                cell: 0,
                stuck: false,
                mask: 0b1000,
            }],
        };
        assert!(matches!(w.append(&bad), Err(StoreError::Format { .. })));
        // Finishing before every declared die arrived.
        assert!(matches!(w.finish(), Err(StoreError::Format { .. })));
        assert!(!path.exists(), "a failed finish must leave no store");
    }

    /// The files in `path`'s directory whose names start with its name.
    fn siblings(path: &Path) -> Vec<std::ffi::OsString> {
        let name = path.file_name().unwrap().to_str().unwrap();
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|f| f.to_str().is_some_and(|f| f.starts_with(name)))
            .collect()
    }

    #[test]
    fn unfinished_writer_leaves_nothing_behind() {
        let path = tmp("unfinished.kds");
        let _ = std::fs::remove_file(&path);
        let mut w = DieStoreWriter::create(&path, meta(2)).unwrap();
        w.append(&record(1)).unwrap();
        assert!(!path.exists(), "the store path is written only by finish");
        drop(w);
        assert!(siblings(&path).is_empty(), "{:?}", siblings(&path));

        // A finished writer leaves exactly the sealed store.
        let mut w = DieStoreWriter::create(&path, meta(1)).unwrap();
        w.append(&record(1)).unwrap();
        w.finish().unwrap();
        assert_eq!(
            siblings(&path),
            vec![path.file_name().unwrap().to_os_string()]
        );
        assert!(DieStoreReader::open(&path).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_truncation_and_corruption() {
        let path = tmp("corrupt.kds");
        let mut w = DieStoreWriter::create(&path, meta(2)).unwrap();
        w.append(&record(1)).unwrap();
        w.append(&record(2)).unwrap();
        w.finish().unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncated file (simulates a crashed build: no footer).
        std::fs::write(&path, &good[..good.len() - 30]).unwrap();
        assert!(matches!(
            DieStoreReader::open(&path),
            Err(StoreError::Format { .. })
        ));

        // Flipped header byte breaks the checksum.
        let mut bad = good.clone();
        bad[20] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            DieStoreReader::open(&path),
            Err(StoreError::Format { .. })
        ));

        std::fs::write(&path, &good).unwrap();
        assert!(DieStoreReader::open(&path).is_ok());
        std::fs::remove_file(&path).unwrap();
    }
}
