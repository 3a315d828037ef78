//! On-disk container for BQ-Tree-compressed rasters.
//!
//! The paper stores the CONUS rasters BQ-Tree-compressed on disk (7.3 GB
//! in place of 40 GB raw / 15 GB TIFF) precisely because "data compression
//! is mostly designed for reducing disk I/O overheads". This container
//! keeps each tile's bitstream independently addressable, so a reader can
//! pull any tile without touching the rest of the file — the property that
//! makes partition- and strip-level streaming work.
//!
//! Format (`ZBQT`, little-endian):
//!
//! ```text
//! magic    [u8;4] = b"ZBQT"
//! version  u32    = 1
//! rows, cols, tile_cells  u64        raster + tiling shape
//! x0, y0, sx, sy          f64        geotransform
//! n_tiles  u64
//! offsets  (n_tiles + 1) × u64       tile i occupies offsets[i]..offsets[i+1]
//! blobs    concatenated tile bitstreams
//! ```

use crate::store::BqRaster;
use bytes::Bytes;
use std::io::{self, Read, Write};
use std::path::Path;
use zonal_raster::{GeoTransform, TileGrid};

const MAGIC: [u8; 4] = *b"ZBQT";
const VERSION: u32 = 1;

/// Errors from container I/O.
#[derive(Debug)]
pub enum BqFileError {
    Io(io::Error),
    NotABqFile,
    BadVersion(u32),
    Corrupt(String),
}

impl From<io::Error> for BqFileError {
    fn from(e: io::Error) -> Self {
        BqFileError::Io(e)
    }
}

impl std::fmt::Display for BqFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BqFileError::Io(e) => write!(f, "bq file io: {e}"),
            BqFileError::NotABqFile => write!(f, "not a ZBQT file"),
            BqFileError::BadVersion(v) => write!(f, "unsupported ZBQT version {v}"),
            BqFileError::Corrupt(m) => write!(f, "corrupt ZBQT file: {m}"),
        }
    }
}

impl std::error::Error for BqFileError {}

/// Serialize a compressed raster into a writer.
pub fn write_bq<W: Write>(w: &mut W, bq: &BqRaster) -> Result<(), BqFileError> {
    let grid = bq.grid_ref();
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    for v in [
        grid.raster_rows() as u64,
        grid.raster_cols() as u64,
        grid.tile_cells() as u64,
    ] {
        w.write_all(&v.to_le_bytes())?;
    }
    let gt = grid.transform();
    for v in [gt.x0, gt.y0, gt.sx, gt.sy] {
        w.write_all(&v.to_le_bytes())?;
    }
    let n = grid.n_tiles();
    w.write_all(&(n as u64).to_le_bytes())?;
    // Offset table, then blobs.
    let mut offset = 0u64;
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    for id in 0..n {
        let (tx, ty) = grid.tile_pos(id);
        offset += bq.encoded_tile(tx, ty).len() as u64;
        offsets.push(offset);
    }
    for o in &offsets {
        w.write_all(&o.to_le_bytes())?;
    }
    for id in 0..n {
        let (tx, ty) = grid.tile_pos(id);
        w.write_all(bq.encoded_tile(tx, ty))?;
    }
    Ok(())
}

fn read_arr<const N: usize>(r: &mut impl Read) -> Result<[u8; N], BqFileError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Deserialize a compressed raster from a reader.
pub fn read_bq<R: Read>(r: &mut R) -> Result<BqRaster, BqFileError> {
    if read_arr::<4>(r)? != MAGIC {
        return Err(BqFileError::NotABqFile);
    }
    let version = u32::from_le_bytes(read_arr::<4>(r)?);
    if version != VERSION {
        return Err(BqFileError::BadVersion(version));
    }
    let rows = u64::from_le_bytes(read_arr::<8>(r)?) as usize;
    let cols = u64::from_le_bytes(read_arr::<8>(r)?) as usize;
    let tile_cells = u64::from_le_bytes(read_arr::<8>(r)?) as usize;
    let x0 = f64::from_le_bytes(read_arr::<8>(r)?);
    let y0 = f64::from_le_bytes(read_arr::<8>(r)?);
    let sx = f64::from_le_bytes(read_arr::<8>(r)?);
    let sy = f64::from_le_bytes(read_arr::<8>(r)?);
    if rows == 0 || cols == 0 || tile_cells == 0 || !(sx > 0.0 && sy > 0.0) {
        return Err(BqFileError::Corrupt("bad shape or geotransform".into()));
    }
    let grid = TileGrid::new(rows, cols, tile_cells, GeoTransform::new(x0, y0, sx, sy));
    let n = u64::from_le_bytes(read_arr::<8>(r)?) as usize;
    if n != grid.n_tiles() {
        return Err(BqFileError::Corrupt(format!(
            "tile count {n} does not match grid ({})",
            grid.n_tiles()
        )));
    }
    // Pushed as read, not reserved from the header's count, and the blobs
    // read through `take`: a corrupt count or offset then fails as a
    // short read instead of asking for its size in memory up front.
    let mut offsets = Vec::new();
    for _ in 0..=n {
        offsets.push(u64::from_le_bytes(read_arr::<8>(r)?));
    }
    if offsets[0] != 0 || offsets.windows(2).any(|w| w[1] < w[0]) {
        return Err(BqFileError::Corrupt("offset table not monotone".into()));
    }
    let total = offsets[n];
    let mut blob = Vec::new();
    r.take(total).read_to_end(&mut blob)?;
    if blob.len() as u64 != total {
        return Err(BqFileError::Corrupt("truncated blobs".into()));
    }
    let blob = Bytes::from(blob);
    let tiles = (0..n)
        .map(|i| blob.slice(offsets[i] as usize..offsets[i + 1] as usize))
        .collect();
    BqRaster::from_parts(grid, tiles).map_err(BqFileError::Corrupt)
}

/// Write to a file path.
pub fn save_bq(path: &Path, bq: &BqRaster) -> Result<(), BqFileError> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_bq(&mut f, bq)?;
    f.flush()?;
    Ok(())
}

/// Read from a file path.
pub fn load_bq(path: &Path) -> Result<BqRaster, BqFileError> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    read_bq(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::compress_source;
    use zonal_raster::srtm::SyntheticSrtm;
    use zonal_raster::TileSource;

    fn sample() -> BqRaster {
        let gt = GeoTransform::new(-100.0, 35.0, 0.02, 0.02);
        let grid = TileGrid::new(40, 55, 16, gt);
        compress_source(&SyntheticSrtm::new(grid, 7))
    }

    /// Bytes before the offset table: magic, version, shape, geotransform
    /// and tile count.
    const HEADER_BYTES: usize = 4 + 4 + 3 * 8 + 4 * 8 + 8;

    #[test]
    fn memory_roundtrip() {
        let bq = sample();
        let mut buf = Vec::new();
        write_bq(&mut buf, &bq).expect("write");
        let back = read_bq(&mut buf.as_slice()).expect("read");
        assert_eq!(back.grid_ref(), bq.grid_ref());
        for t in bq.grid_ref().iter() {
            assert_eq!(
                back.tile(t.tx, t.ty),
                bq.tile(t.tx, t.ty),
                "tile {:?}",
                (t.tx, t.ty)
            );
            assert_eq!(back.encoded_tile(t.tx, t.ty), bq.encoded_tile(t.tx, t.ty));
        }
    }

    #[test]
    fn file_roundtrip() {
        let bq = sample();
        let path = std::env::temp_dir().join(format!("zbqt-test-{}.zbqt", std::process::id()));
        save_bq(&path, &bq).expect("save");
        let back = load_bq(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.stats().encoded_bytes, bq.stats().encoded_bytes);
        assert_eq!(back.tile(0, 0), bq.tile(0, 0));
    }

    #[test]
    fn wrong_magic() {
        let buf = b"ZRASxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx".to_vec();
        assert!(matches!(
            read_bq(&mut buf.as_slice()),
            Err(BqFileError::NotABqFile)
        ));
    }

    #[test]
    fn truncated_blob_rejected() {
        let bq = sample();
        let mut buf = Vec::new();
        write_bq(&mut buf, &bq).expect("write");
        buf.truncate(buf.len() - 5);
        assert!(matches!(
            read_bq(&mut buf.as_slice()),
            Err(BqFileError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_last_offset_is_corrupt() {
        // A last offset of 2^50 bytes must fail as a short read, not as an
        // allocation of that size.
        let bq = sample();
        let mut buf = Vec::new();
        write_bq(&mut buf, &bq).expect("write");
        let n = bq.grid_ref().n_tiles();
        let last = HEADER_BYTES + 8 * n;
        buf[last..last + 8].copy_from_slice(&(1u64 << 50).to_le_bytes());
        assert!(matches!(
            read_bq(&mut buf.as_slice()),
            Err(BqFileError::Corrupt(m)) if m == "truncated blobs"
        ));
    }

    #[test]
    fn file_smaller_than_raw_for_dem() {
        let bq = sample();
        let mut buf = Vec::new();
        write_bq(&mut buf, &bq).expect("write");
        let raw = bq.stats().raw_bytes as usize;
        assert!(
            buf.len() < raw,
            "container with offsets must still beat raw: {} vs {raw}",
            buf.len()
        );
    }
}
