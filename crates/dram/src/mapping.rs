//! Physical-address to DRAM-coordinate mapping.
//!
//! Table I of the paper specifies a bit-sliced layout
//! (`RRRR.RRRRRRRR.RBBBCCCB.DDDDDCCC`, MSB first, over the address bits
//! above the 32 B DRAM-word offset). The paper chooses this *regular*
//! scheme — turning off pseudo-random I-poly channel hashing — so that PIM
//! kernels can map each warp to a single channel and each thread to a
//! single bank. Both schemes are implemented here; both are bijections.

use pimsim_types::{AddressMapConfig, DecodedAddr, DramConfig, PhysAddr};

/// One field of the bit-sliced layout; the discriminant indexes the
/// `[row, bank, col, channel]` part array of a decode or encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Row = 0,
    Bank = 1,
    Col = 2,
    Channel = 3,
}

/// A maximal run of `w` adjacent address bits that land in one field:
/// address bits `src..src + w` (counted above the word offset) hold the
/// field's bits `dst..dst + w`.
#[derive(Debug, Clone, Copy)]
struct BitRun {
    field: Field,
    src: u32,
    dst: u32,
    /// The `w` low bits set.
    mask: u64,
}

/// Maps physical addresses to DRAM coordinates and back.
///
/// # Example
///
/// ```
/// use pimsim_dram::mapping::AddressMapper;
/// use pimsim_types::{AddressMapConfig, DramConfig, PhysAddr};
///
/// let mapper = AddressMapper::new(&AddressMapConfig::default(), &DramConfig::default(), 32);
/// let d = mapper.decode(PhysAddr(0x1234_5678));
/// let a = mapper.encode(d.channel, d.bank, d.row, d.col);
/// // Encoding loses only the within-word offset bits.
/// assert_eq!(a.0, 0x1234_5678 & !0x1f);
/// ```
#[derive(Debug, Clone)]
pub struct AddressMapper {
    /// The layout as contiguous bit runs, LSB-first, starting at
    /// `offset_bits` (the widened row bits above the pattern included).
    runs: Vec<BitRun>,
    offset_bits: u32,
    channel_mask: u64,
    ipoly: bool,
}

impl AddressMapper {
    /// Builds a mapper for the given scheme and geometry. `word_bytes` is
    /// the DRAM atom size (power of two).
    ///
    /// # Panics
    ///
    /// Panics if the pattern's field widths do not match the geometry (use
    /// [`pimsim_types::SystemConfig::validate`] to get an error instead) or
    /// if `word_bytes` is not a power of two.
    pub fn new(map: &AddressMapConfig, dram: &DramConfig, word_bytes: usize) -> Self {
        assert!(
            word_bytes.is_power_of_two(),
            "word_bytes must be a power of two"
        );
        let offset_bits = word_bytes.trailing_zeros();
        let (pattern, ipoly) = match map {
            AddressMapConfig::BitPattern(p) => (p.clone(), false),
            // I-poly reuses the Table I layout, then hashes the channel bits.
            AddressMapConfig::IPolyHash => {
                let AddressMapConfig::BitPattern(p) = AddressMapConfig::table1() else {
                    unreachable!()
                };
                (p, true)
            }
        };
        let mut fields_lsb: Vec<Field> = pattern
            .chars()
            .rev()
            .map(|c| match c {
                'R' => Field::Row,
                'B' => Field::Bank,
                'C' => Field::Col,
                'D' => Field::Channel,
                other => panic!("invalid address-map pattern char: {other}"),
            })
            .collect();
        let count = |f: Field| fields_lsb.iter().filter(|&&x| x == f).count();
        assert_eq!(
            1usize << count(Field::Channel),
            dram.channels,
            "channel bits do not match geometry"
        );
        assert_eq!(
            1usize << count(Field::Bank),
            dram.banks,
            "bank bits do not match geometry"
        );
        assert_eq!(
            1u64 << count(Field::Col),
            u64::from(dram.cols_per_row),
            "column bits do not match geometry"
        );
        // Widen the row field so addresses above the pattern stay a
        // bijection: bits above the pattern are treated as row MSBs, up to
        // the 32-bit row index limit. Address bits beyond that are ignored
        // (decode) / unrepresentable (encode).
        let row_bits = count(Field::Row) as u32;
        let extra = 32u32.saturating_sub(row_bits);
        let used: u32 = fields_lsb.len() as u32 + offset_bits;
        for _ in used..(used + extra).min(64) {
            fields_lsb.push(Field::Row);
        }
        // Fold adjacent same-field bits into runs: decode and encode then
        // cost one shift/mask per run instead of one step per address bit.
        let mut runs: Vec<BitRun> = Vec::new();
        let mut next_dst = [0u32; 4];
        for (i, &field) in fields_lsb.iter().enumerate() {
            let dst = &mut next_dst[field as usize];
            match runs.last_mut() {
                Some(r) if r.field == field => r.mask = (r.mask << 1) | 1,
                _ => runs.push(BitRun {
                    field,
                    src: i as u32,
                    dst: *dst,
                    mask: 1,
                }),
            }
            *dst += 1;
        }
        AddressMapper {
            runs,
            offset_bits,
            channel_mask: dram.channels as u64 - 1,
            ipoly,
        }
    }

    /// Decodes a physical address into DRAM coordinates. The within-word
    /// offset bits are ignored.
    pub fn decode(&self, addr: PhysAddr) -> DecodedAddr {
        let a = addr.0 >> self.offset_bits;
        let mut parts = [0u64; 4];
        for r in &self.runs {
            parts[r.field as usize] |= ((a >> r.src) & r.mask) << r.dst;
        }
        let [row, bank, col, mut channel] = parts;
        if self.ipoly {
            channel = self.hash_channel(channel, row);
        }
        DecodedAddr {
            channel: channel as u16,
            bank: bank as u16,
            row: row as u32,
            col: col as u32,
        }
    }

    /// Encodes DRAM coordinates back into a physical address (word-aligned).
    pub fn encode(&self, channel: u16, bank: u16, row: u32, col: u32) -> PhysAddr {
        let mut channel = u64::from(channel);
        if self.ipoly {
            // The hash is an XOR fold, hence self-inverse given the row.
            channel = self.hash_channel(channel, u64::from(row));
        }
        let parts = [u64::from(row), u64::from(bank), u64::from(col), channel];
        let mut a = 0u64;
        for r in &self.runs {
            a |= ((parts[r.field as usize] >> r.dst) & r.mask) << r.src;
        }
        PhysAddr(a << self.offset_bits)
    }

    /// XOR-folds row bits into the channel bits (I-poly-style hashing).
    fn hash_channel(&self, channel: u64, row: u64) -> u64 {
        let bits = self.channel_mask.count_ones();
        let mut fold = 0u64;
        let mut r = row;
        while r != 0 {
            fold ^= r & self.channel_mask;
            r >>= bits;
        }
        (channel ^ fold) & self.channel_mask
    }

    /// Number of low address bits covered by the within-word offset.
    pub fn offset_bits(&self) -> u32 {
        self.offset_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_types::SystemConfig;

    fn mapper(ipoly: bool) -> AddressMapper {
        let cfg = SystemConfig::default();
        let map = if ipoly {
            AddressMapConfig::IPolyHash
        } else {
            cfg.addr_map.clone()
        };
        AddressMapper::new(&map, &cfg.dram, cfg.dram_word_bytes())
    }

    #[test]
    fn table1_low_bits_are_col_then_channel() {
        // Pattern LSB side: ...CCCB DDDDD CCC -> bits 0-2 column, 3-7 channel.
        let m = mapper(false);
        let d0 = m.decode(PhysAddr(0));
        assert_eq!(
            d0,
            DecodedAddr {
                channel: 0,
                bank: 0,
                row: 0,
                col: 0
            }
        );
        // Bit 5 (first above the 5 offset bits) is a column bit.
        let d = m.decode(PhysAddr(1 << 5));
        assert_eq!((d.channel, d.bank, d.row, d.col), (0, 0, 0, 1));
        // Bits 8..12 are channel bits.
        let d = m.decode(PhysAddr(1 << 8));
        assert_eq!((d.channel, d.bank, d.row, d.col), (1, 0, 0, 0));
        let d = m.decode(PhysAddr(0b11111 << 8));
        assert_eq!(d.channel, 31);
    }

    #[test]
    fn consecutive_words_sweep_columns_first() {
        let m = mapper(false);
        // Consecutive 32 B words in one channel: addresses step by 32 with
        // the same channel bits. Columns 0..8 come from the 3 low C bits.
        let base = 0u64;
        for i in 0..8 {
            let d = m.decode(PhysAddr(base + i * 32));
            assert_eq!(d.col, i as u32);
            assert_eq!(d.channel, 0);
            assert_eq!(d.bank, 0);
            assert_eq!(d.row, 0);
        }
    }

    #[test]
    fn encode_decode_roundtrip_table1() {
        let m = mapper(false);
        // Addresses up to 2^52 (13 pattern row bits widened to 32).
        for &a in &[0u64, 32, 0x1000, 0xdead_bee0, 0xf_1234_5678_9ac0] {
            let aligned = a & !0x1f;
            let d = m.decode(PhysAddr(aligned));
            assert_eq!(m.encode(d.channel, d.bank, d.row, d.col).0, aligned);
        }
    }

    #[test]
    fn encode_decode_roundtrip_ipoly() {
        let m = mapper(true);
        for &a in &[0u64, 32, 0x777_7780, 0xdead_bee0, 0xffff_ffe0] {
            let d = m.decode(PhysAddr(a));
            assert_eq!(m.encode(d.channel, d.bank, d.row, d.col).0, a & !0x1f);
        }
    }

    #[test]
    fn ipoly_spreads_rows_across_channels() {
        let m = mapper(true);
        // Same channel/bank/col coordinates, consecutive rows: under I-poly
        // the *encoded* addresses of (channel=0, row=r) differ in channel
        // bits, i.e. a row-major sweep at fixed decoded channel 0 maps to
        // addresses whose plain Table I channel varies.
        let plain = mapper(false);
        let mut seen = std::collections::HashSet::new();
        for row in 0..32 {
            let a = m.encode(0, 0, row, 0);
            seen.insert(plain.decode(a).channel);
        }
        assert!(seen.len() > 1, "ipoly should scatter rows across channels");
    }

    #[test]
    fn high_address_bits_extend_row() {
        let m = mapper(false);
        // A bit far above the 28-bit pattern must land in the row field.
        let d = m.decode(PhysAddr(1 << 40));
        assert_eq!(d.channel, 0);
        assert_eq!(d.bank, 0);
        assert_eq!(d.col, 0);
        assert!(d.row > 0);
    }

    /// The per-bit decode the run-based one replaced: walk the pattern
    /// LSB-first, widened with row bits up to a 32-bit row, and hand each
    /// address bit to the next free bit of its field.
    fn reference_decode(pattern: &str, m: &AddressMapper, addr: u64) -> DecodedAddr {
        let mut fields: Vec<char> = pattern.chars().rev().collect();
        let rows = fields.iter().filter(|&&c| c == 'R').count() as u32;
        let used = fields.len() as u32 + m.offset_bits;
        let widen = (used + 32u32.saturating_sub(rows))
            .min(64)
            .saturating_sub(used);
        fields.extend(std::iter::repeat_n('R', widen as usize));
        let a = addr >> m.offset_bits;
        let mut parts = [0u64; 4];
        let mut next = [0u32; 4];
        for (i, c) in fields.iter().enumerate() {
            let k = "RBCD".find(*c).expect("pattern char");
            parts[k] |= ((a >> i) & 1) << next[k];
            next[k] += 1;
        }
        let [row, bank, col, mut channel] = parts;
        if m.ipoly {
            channel = m.hash_channel(channel, row);
        }
        DecodedAddr {
            channel: channel as u16,
            bank: bank as u16,
            row: row as u32,
            col: col as u32,
        }
    }

    /// Table I, I-poly and LPDDR5X with four ranks: each mapper with the
    /// bit pattern it lays out.
    fn oracle_mappers() -> Vec<(&'static str, String, AddressMapper)> {
        let pattern = |map: &AddressMapConfig| match map {
            AddressMapConfig::BitPattern(p) => p.clone(),
            AddressMapConfig::IPolyHash => match AddressMapConfig::table1() {
                AddressMapConfig::BitPattern(p) => p,
                AddressMapConfig::IPolyHash => unreachable!(),
            },
        };
        let hbm = SystemConfig::default();
        let lp5x = crate::backend::system_config(
            crate::backend::parse_spec("lp5x:ranks=4").expect("registered backend"),
        );
        [
            ("table1", &hbm, hbm.addr_map.clone()),
            ("ipoly", &hbm, AddressMapConfig::IPolyHash),
            ("lp5x:ranks=4", &lp5x, lp5x.addr_map.clone()),
        ]
        .into_iter()
        .map(|(name, cfg, map)| {
            let m = AddressMapper::new(&map, &cfg.dram, cfg.dram_word_bytes());
            (name, pattern(&map), m)
        })
        .collect()
    }

    #[test]
    fn run_decode_matches_per_bit_reference() {
        let mut rng = pimsim_types::rng::SplitMix64::new(0xDEC0DE);
        for (name, pattern, m) in oracle_mappers() {
            for case in 0..4096 {
                // Every magnitude, from a few offset bits to the full 64
                // (bits above the pattern and above the 32-bit row).
                let addr = rng.next_u64() >> rng.next_range(64);
                assert_eq!(
                    m.decode(PhysAddr(addr)),
                    reference_decode(&pattern, &m, addr),
                    "{name} case {case}: addr {addr:#x}"
                );
            }
        }
    }

    #[test]
    fn lp5x_encode_inverts_decode() {
        let (_, pattern, m) = oracle_mappers().pop().expect("lp5x mapper");
        // Representable addresses: the pattern with its row widened to
        // 32 bits, above the word offset.
        let rows = pattern.chars().filter(|&c| c == 'R').count() as u32;
        let bits = m.offset_bits + pattern.len() as u32 + 32 - rows;
        let mut rng = pimsim_types::rng::SplitMix64::new(0x1F5);
        for case in 0..4096 {
            let addr = rng.next_range(1 << bits) & !((1 << m.offset_bits) - 1);
            let d = m.decode(PhysAddr(addr));
            assert_eq!(
                m.encode(d.channel, d.bank, d.row, d.col).0,
                addr,
                "case {case}: addr {addr:#x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "channel bits do not match")]
    fn mismatched_geometry_panics() {
        let mut cfg = SystemConfig::default();
        cfg.dram.channels = 8;
        let _ = AddressMapper::new(&cfg.addr_map, &cfg.dram, 32);
    }
}
