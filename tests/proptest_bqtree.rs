//! Property tests for the BQ-Tree codec: lossless round-trip over adversarial
//! tile shapes and value distributions, a pinned digest of the catalog's
//! encoded bitstream, and robustness against corrupt payloads.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use zonal_histo::bqtree::{decode_tile, encode_tile};
use zonal_histo::raster::srtm::{SrtmCatalog, SyntheticSrtm};
use zonal_histo::raster::{TileData, TileSource};

fn tile_strategy() -> impl Strategy<Value = TileData> {
    (1usize..40, 1usize..40).prop_flat_map(|(rows, cols)| {
        prop::collection::vec(any::<u16>(), rows * cols)
            .prop_map(move |values| TileData::new(values, rows, cols))
    })
}

/// Low-entropy tiles: few distinct values, like classified land-cover
/// rasters (the other data family the paper's technique targets).
fn low_entropy_tile() -> impl Strategy<Value = TileData> {
    (1usize..40, 1usize..40, prop::collection::vec(0u16..4, 1..4)).prop_flat_map(
        |(rows, cols, alphabet)| {
            prop::collection::vec(0usize..alphabet.len(), rows * cols).prop_map(move |idx| {
                TileData::new(idx.iter().map(|&i| alphabet[i]).collect(), rows, cols)
            })
        },
    )
}

/// Tiles up to 140 cells a side: padded to side 256 above 128, so rows span
/// several 64-bit words. Half are white noise; half are tilted ramps whose
/// high planes split into uniform quadrants and whose low planes are mixed.
fn wide_tile_strategy() -> impl Strategy<Value = TileData> {
    (
        (1usize..141, 1usize..141),
        (any::<u16>(), 0usize..64, 0usize..64, 0u32..8),
        prop::bool::ANY,
    )
        .prop_flat_map(|((rows, cols), (base, a, b, shift), noise)| {
            prop::collection::vec(any::<u16>(), rows * cols).prop_map(move |random| {
                let values = if noise {
                    random
                } else {
                    (0..rows * cols)
                        .map(|i| {
                            base.wrapping_add((((i / cols) * a + (i % cols) * b) >> shift) as u16)
                        })
                        .collect()
                };
                TileData::new(values, rows, cols)
            })
        })
}

/// The codec's own panic messages for a corrupt or truncated payload.
const CODEC_PANICS: [&str; 2] = ["bitstream underrun", "corrupt BQ-Tree stream"];

fn is_codec_panic(msg: &str) -> bool {
    CODEC_PANICS.iter().any(|m| msg.contains(m))
}

/// Silence the expected codec panics of the corrupt-stream test while
/// leaving every other panic report intact.
fn quiet_codec_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !is_codec_panic(&info.to_string()) {
                default(info)
            }
        }));
    });
}

/// Decode a possibly corrupt payload: it must yield a tile of the header's
/// shape or panic with one of the codec's own messages.
fn check_corrupt_decode(data: &[u8], rows: usize, cols: usize) {
    match catch_unwind(AssertUnwindSafe(|| decode_tile(data))) {
        Ok(tile) => assert_eq!((tile.rows, tile.cols), (rows, cols)),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("<non-string panic>");
            assert!(
                is_codec_panic(msg),
                "decode panicked outside the codec: {msg}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn roundtrip_arbitrary(tile in tile_strategy()) {
        let enc = encode_tile(&tile);
        prop_assert_eq!(decode_tile(&enc), tile);
    }

    #[test]
    fn roundtrip_low_entropy_and_compresses(tile in low_entropy_tile()) {
        let enc = encode_tile(&tile);
        prop_assert_eq!(decode_tile(&enc), tile.clone());
        // With ≤ 4 distinct small values, 14 of 16 planes are uniform zero:
        // sizable tiles must compress.
        if tile.len() >= 256 {
            prop_assert!(
                enc.len() < tile.len() * 2,
                "low-entropy tile should beat raw: {} vs {}",
                enc.len(),
                tile.len() * 2
            );
        }
    }

    #[test]
    fn encoding_is_deterministic(tile in tile_strategy()) {
        prop_assert_eq!(encode_tile(&tile), encode_tile(&tile));
    }

    #[test]
    fn header_carries_shape(tile in tile_strategy()) {
        let enc = encode_tile(&tile);
        let dec = decode_tile(&enc);
        prop_assert_eq!(dec.rows, tile.rows);
        prop_assert_eq!(dec.cols, tile.cols);
    }

    #[test]
    fn roundtrip_multiword_rows(tile in wide_tile_strategy()) {
        let enc = encode_tile(&tile);
        prop_assert_eq!(decode_tile(&enc), tile);
    }

    /// Truncate the payload or flip bits after the 4-byte header (which
    /// `BqRaster::from_parts` validates against the grid).
    #[test]
    fn corrupt_stream_panics_only_with_codec_messages(
        tile in wide_tile_strategy(),
        truncate in prop::bool::ANY,
        picks in prop::collection::vec(any::<u64>(), 1..9),
    ) {
        quiet_codec_panics();
        let mut data = encode_tile(&tile).to_vec();
        let payload_bits = (data.len() - 4) as u64 * 8;
        if truncate {
            data.truncate(4 + (picks[0] % (payload_bits / 8)) as usize);
        } else {
            for p in &picks {
                let bit = 32 + (p % payload_bits) as usize;
                data[bit / 8] ^= 1 << (bit % 8);
            }
        }
        check_corrupt_decode(&data, tile.rows, tile.cols);
    }
}

/// Shapes whose rows end inside, on and across 64-bit word boundaries,
/// and whose padding is a few cells, a whole word, or most of the square.
/// (6, 6) is the 60-cpd tile, (12, 12) the 120-cpd one and (12, 5) a
/// ragged 120-cpd edge tile.
const WORD_BOUNDARY_SHAPES: [(usize, usize); 10] = [
    (1, 1),
    (4, 4),
    (6, 6),
    (12, 5),
    (12, 12),
    (63, 64),
    (64, 65),
    (65, 130),
    (100, 300),
    (257, 3),
];

#[test]
fn word_boundary_shapes_roundtrip() {
    let mut state = 0x9E37_79B9_u32;
    for (rows, cols) in WORD_BOUNDARY_SHAPES {
        let noise: Vec<u16> = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 16) as u16
            })
            .collect();
        let n = rows * cols;
        // 0x0F0F mixes all-ones and all-zero planes in one tile.
        for values in [noise, vec![1234; n], vec![0x0F0F; n], vec![u16::MAX; n]] {
            let tile = TileData::new(values, rows, cols);
            let enc = encode_tile(&tile);
            assert_eq!(decode_tile(&enc), tile, "{rows}x{cols}");
        }
    }
}

/// Terrain seed of the catalog whose bitstream is pinned.
const GOLDEN_SEED: u64 = 20140519;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Encode every tile of the full catalog at `cpd`, once per tile size in
/// `tile_degs`, and return `(tiles, encoded bytes, digest)` per tile size.
/// The digest folds each tile's FNV-1a, in catalog and tile order, into one
/// FNV-1a.
fn catalog_digests(cpd: u32, tile_degs: &[f64]) -> Vec<(u64, u64, u64)> {
    let mut out = vec![(0u64, 0u64, 0xcbf2_9ce4_8422_2325u64); tile_degs.len()];
    for part in SrtmCatalog::new(cpd).partitions() {
        let raster = SyntheticSrtm::new(part.grid(tile_degs[0]), GOLDEN_SEED).to_raster();
        for (&deg, (tiles, bytes, digest)) in tile_degs.iter().zip(&mut out) {
            let grid = part.grid(deg);
            let src = raster.tile_source(&grid);
            for t in grid.iter() {
                let enc = encode_tile(&src.tile(t.tx, t.ty));
                let tile_hash = fnv1a(0xcbf2_9ce4_8422_2325, &enc);
                *digest = fnv1a(*digest, &tile_hash.to_le_bytes());
                *tiles += 1;
                *bytes += enc.len() as u64;
            }
        }
    }
    out
}

/// The encoded bitstream is a storage format: `ZBQT` files and the §IV.B
/// compression ratios depend on it staying byte-identical across codec
/// rewrites. 0.1° is the paper's tile size (2×2 cells at 20 cpd); 6.4°
/// gives 128-cell tiles, ragged at partition edges, whose padded rows span
/// two or more words.
#[test]
fn catalog_bitstream_golden_20cpd() {
    assert_eq!(
        catalog_digests(20, &[0.1, 6.4]),
        vec![
            (157_162, 4_361_920, 6_655_609_768_762_914_551),
            (98, 466_405, 10_879_393_459_718_458_468),
        ]
    );
}

/// The benchmark's catalog: 12×12-cell tiles at 0.1°.
#[test]
#[ignore = "encodes 22 M cells; run in release"]
fn catalog_bitstream_golden_120cpd() {
    assert_eq!(
        catalog_digests(120, &[0.1]),
        vec![(158_144, 17_502_132, 2_797_052_620_436_099_485)]
    );
}
