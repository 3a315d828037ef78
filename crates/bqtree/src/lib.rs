//! Bitplane Bitmap Quadtree (BQ-Tree) codec.
//!
//! The paper's Step 0 decodes rasters compressed with the authors' BQ-Tree
//! technique (Zhang, You & Gruenwald 2011): a 16-bit raster tile is sliced
//! into 16 **bitplanes**; each bitplane — a binary image — is encoded as a
//! region quadtree whose uniform quadrants collapse to single nodes, with
//! 4×4 literal bitmaps at the leaves. On spatially correlated data (DEMs)
//! the high planes are almost entirely uniform, giving the paper's ~18%
//! compressed size, while tiles stay independently decodable — the property
//! that lets Step 0 run tile-per-thread-block on the device.
//!
//! Layout of an encoded tile:
//!
//! ```text
//! [rows: u16][cols: u16]              header
//! per plane 0..16:                    quadtree bitstreams, concatenated
//!   2-bit node codes, pre-order:      0 = all-zero leaf, 1 = all-one leaf,
//!                                     2 = internal (4 children follow)
//!   at region side == 4, code 2 is    followed by 16 literal bits
//! ```
//!
//! Tiles are padded to a power-of-two square internally (pad bits are 0)
//! and cropped on decode, so any tile shape round-trips exactly.
//!
//! The host codec works a word at a time ([`bits`], [`plane`]): the bit
//! streams move 64-bit words, and the encoder tests regions with one
//! masked word per row. The decoder sets each leaf's bits in a buffer of
//! all 16 planes, one byte per cell row and 8-column group and plane, and
//! then writes each cell once through an 8×8 bit transpose. The bytes the
//! encoder writes are pinned by golden digests of the whole catalog, so
//! `ZBQT` files and the compression ratios do not depend on how the host
//! gets there.

pub mod bits;
pub mod codec;
pub mod file;
pub mod plane;
pub mod store;

pub use codec::{decode_tile, encode_tile};
pub use file::{load_bq, save_bq};
pub use store::{compress_source, BqRaster, CompressionStats};
