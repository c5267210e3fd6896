//! The benchmark's own inputs: schema constants, a seeded generator, the
//! Zipf sampler, the OLTP operation stream and the row-wise reference
//! results.
//!
//! Nothing here calls into the engine or into `vendor/rand`, so no later
//! change outside `bench/e2e/` can move the inputs; `checksum` proves it
//! (`bench.input_checksum`). The shapes started as a copy of
//! `hana-workload`'s `SalesSchema`/`DataGen`/`Zipf`.

use std::collections::BTreeMap;
use std::sync::Arc;

/// City pool — the paper's running example values first.
pub const CITIES: [&str; 16] = [
    "Campbell",
    "Daily City",
    "Los Altos",
    "Los Gatos",
    "Palo Alto",
    "San Jose",
    "Saratoga",
    "Seoul",
    "Walldorf",
    "Berlin",
    "Mannheim",
    "Heidelberg",
    "Sunnyvale",
    "Cupertino",
    "Mountain View",
    "Santa Clara",
];
/// Index of the city the drill-down queries (Q3, Q6) filter on.
pub const LOS_GATOS: u8 = 3;
pub const CURRENCIES: [&str; 5] = ["USD", "EUR", "KRW", "GBP", "JPY"];
pub const CATEGORIES: [&str; 8] = [
    "electronics",
    "food",
    "clothing",
    "furniture",
    "toys",
    "books",
    "sports",
    "garden",
];

/// Column positions of `sales` — all of them, whether or not a query of
/// the benchmark names the column.
#[allow(dead_code)]
pub mod col {
    pub const ORDER_ID: usize = 0;
    pub const CUSTOMER_ID: usize = 1;
    pub const PRODUCT_ID: usize = 2;
    pub const CITY: usize = 3;
    pub const AMOUNT: usize = 4;
    pub const QUANTITY: usize = 5;
    pub const CURRENCY: usize = 6;
    pub const STATUS: usize = 7;
    /// Width of a `sales` row; `customers.city` sits at `ARITY + 2` in Q6's
    /// joined rows.
    pub const ARITY: usize = 8;
}

/// Q5's amount range, half-open like the engine's `Between`.
pub const Q5_LO: i64 = 1_000;
pub const Q5_HI: i64 = 5_000;
pub const MAX_AMOUNT: i64 = 10_000;
pub const MAX_QUANTITY: i64 = 20;
pub const ZIPF_SKEW: f64 = 0.8;

/// xoshiro256** seeded through SplitMix64.
#[derive(Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    /// An independent stream for `(seed, lane)`; lanes separate the fact
    /// rows, the dimensions and each client's operations.
    pub fn lane(seed: u64, lane: u64) -> Self {
        Rng::new(seed ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// Uniform in `1..=max`.
    pub fn amount(&mut self, max: i64) -> i64 {
        1 + self.below(max as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(n, s) over `0..n` on a precomputed CDF; rank 0 is the hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One `sales` row without its key (the key is the row's position, or the
/// id an insert was given).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SaleRow {
    pub customer_id: u32,
    pub product_id: u32,
    pub city: u8,
    pub amount: u32,
    pub quantity: u8,
    pub currency: u8,
    pub status: u8,
}

impl SaleRow {
    pub fn generate(rng: &mut Rng, customers: u32, products: u32) -> Self {
        SaleRow {
            customer_id: rng.below(customers as u64) as u32,
            product_id: rng.below(products as u64) as u32,
            city: rng.below(CITIES.len() as u64) as u8,
            amount: rng.amount(MAX_AMOUNT) as u32,
            quantity: rng.amount(MAX_QUANTITY) as u8,
            currency: rng.below(CURRENCIES.len() as u64) as u8,
            status: 0,
        }
    }

    fn hash_into(&self, h: &mut Fnv) {
        h.u64(self.customer_id as u64);
        h.u64(self.product_id as u64);
        h.u64(self.amount as u64);
        h.u64(u64::from_le_bytes([
            self.city,
            self.quantity,
            self.currency,
            self.status,
            0,
            0,
            0,
            0,
        ]));
    }
}

/// The three tables' contents for one `(seed, size)`.
pub struct Dataset {
    /// `sales` rows; `order_id` is the index.
    pub sales: Vec<SaleRow>,
    /// `customers.city` by customer id (`name` is derived from the id).
    pub customer_city: Vec<u8>,
    /// `products(category, price)` by product id.
    pub products: Vec<(u8, u32)>,
}

impl Dataset {
    pub fn generate(seed: u64, sales: usize, customers: usize, products: usize) -> Self {
        let mut rng = Rng::lane(seed, 1);
        let mut dims = Rng::lane(seed, 2);
        Dataset {
            sales: (0..sales)
                .map(|_| SaleRow::generate(&mut rng, customers as u32, products as u32))
                .collect(),
            customer_city: (0..customers)
                .map(|_| dims.below(CITIES.len() as u64) as u8)
                .collect(),
            products: (0..products)
                .map(|_| {
                    (
                        dims.below(CATEGORIES.len() as u64) as u8,
                        dims.amount(500) as u32,
                    )
                })
                .collect(),
        }
    }

    pub fn customer_name(id: usize) -> String {
        format!("customer-{id:06}")
    }

    pub fn checksum(&self) -> u64 {
        let mut h = Fnv::new();
        for r in &self.sales {
            r.hash_into(&mut h);
        }
        for &c in &self.customer_city {
            h.u64(c as u64);
        }
        for &(c, p) in &self.products {
            h.u64((c as u64) << 32 | p as u64);
        }
        h.finish48()
    }
}

/// FNV-1a over 64-bit words, folded to 48 bits so the value is exact as a
/// JSON number.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish48(&self) -> u64 {
        (self.0 ^ (self.0 >> 48)) & ((1 << 48) - 1)
    }
}

/// One OLTP operation of the stock mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Insert a fresh order under `order_id`.
    NewOrder { order_id: i64, row: SaleRow },
    /// Point-read the order, then add `delta` to its amount and mark it paid.
    Payment { order_id: i64, delta: i64 },
    /// Point-read the order.
    Lookup { order_id: i64 },
    /// Delete the order.
    Cancel { order_id: i64 },
}

/// Percentages of (NewOrder, Payment, Lookup, Cancel).
pub type Mix = (u32, u32, u32, u32);
/// The repository's stock OLTP mix.
pub const STOCK_MIX: Mix = (25, 35, 35, 5);
/// `htap_mixed`'s writer: update-heavy, so the table's size stays bounded
/// while versions churn.
pub const HTAP_MIX: Mix = (20, 60, 10, 10);

/// One client's operation stream: a pure function of `(seed, client)`.
/// Reads, updates and deletes pick Zipf-ranked keys among the preloaded
/// orders (shared by all clients, so hot keys conflict); inserted ids are
/// disjoint per client.
pub struct OpStream {
    rng: Rng,
    zipf: Arc<Zipf>,
    mix: Mix,
    next_id: i64,
    stride: i64,
    customers: u32,
    products: u32,
}

impl OpStream {
    /// `lane` picks the random stream; inserts take the ids `first_id`,
    /// `first_id + stride`, … so that concurrent streams never collide.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        seed: u64,
        lane: u64,
        first_id: i64,
        stride: i64,
        customers: usize,
        products: usize,
        zipf: Arc<Zipf>,
        mix: Mix,
    ) -> Self {
        assert_eq!(mix.0 + mix.1 + mix.2 + mix.3, 100);
        OpStream {
            rng: Rng::lane(seed, 16 + lane),
            zipf,
            mix,
            next_id: first_id,
            stride,
            customers: customers as u32,
            products: products as u32,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100) as u32;
        let (i, p, l, _) = self.mix;
        if roll < i {
            let order_id = self.next_id;
            self.next_id += self.stride;
            Op::NewOrder {
                order_id,
                row: SaleRow::generate(&mut self.rng, self.customers, self.products),
            }
        } else {
            let order_id = self.zipf.sample(&mut self.rng) as i64;
            if roll < i + p {
                Op::Payment {
                    order_id,
                    delta: self.rng.amount(100),
                }
            } else if roll < i + p + l {
                Op::Lookup { order_id }
            } else {
                Op::Cancel { order_id }
            }
        }
    }

    /// Hash of the first `n` operations of a fresh copy of this stream.
    pub fn checksum(mut self, n: usize) -> u64 {
        let mut h = Fnv::new();
        for _ in 0..n {
            match self.next_op() {
                Op::NewOrder { order_id, row } => {
                    h.u64(1);
                    h.u64(order_id as u64);
                    row.hash_into(&mut h);
                }
                Op::Payment { order_id, delta } => {
                    h.u64(2);
                    h.u64(order_id as u64);
                    h.u64(delta as u64);
                }
                Op::Lookup { order_id } => {
                    h.u64(3);
                    h.u64(order_id as u64);
                }
                Op::Cancel { order_id } => {
                    h.u64(4);
                    h.u64(order_id as u64);
                }
            }
        }
        h.finish48()
    }
}

/// A statement's result in one shape for all six queries: group key →
/// `(count, sum)`. Ungrouped results use the key `""`; a query that
/// returns no count (or no sum) leaves that half `0`.
pub type Answer = BTreeMap<String, (u64, i64)>;

/// Q1–Q6, by index:
/// Q1 `SUM(amount)`; Q2 `city → COUNT, SUM(amount)`; Q3 `COUNT, SUM(amount)
/// WHERE city = 'Los Gatos'`; Q4 `status → COUNT`; Q5 `SUM(amount *
/// quantity) WHERE amount in [1000, 5000)`; Q6 `sales ⋈ customers WHERE
/// sales.city = 'Los Gatos' → customers.city → SUM(sales.amount)`.
pub const QUERIES: usize = 6;

/// The answers folded row by row over the rows the generator produced.
pub fn expected_answers(data: &Dataset) -> [Answer; QUERIES] {
    let mut a: [Answer; QUERIES] = Default::default();
    let mut add = |q: usize, key: &str, count: u64, sum: i64| {
        let g = a[q].entry(key.to_string()).or_default();
        g.0 += count;
        g.1 += sum;
    };
    for r in &data.sales {
        let amount = r.amount as i64;
        add(0, "", 0, amount);
        add(1, CITIES[r.city as usize], 1, amount);
        add(3, &r.status.to_string(), 1, 0);
        if (Q5_LO..Q5_HI).contains(&amount) {
            add(4, "", 0, amount * r.quantity as i64);
        }
        if r.city == LOS_GATOS {
            add(2, "", 1, amount);
            let cc = data.customer_city[r.customer_id as usize];
            add(5, CITIES[cc as usize], 0, amount);
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, client: usize) -> OpStream {
        let zipf = Arc::new(Zipf::new(1_000, ZIPF_SKEW));
        OpStream::new(
            seed,
            client as u64,
            1_000 + client as i64,
            2,
            100,
            10,
            zipf,
            STOCK_MIX,
        )
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Dataset::generate(7, 2_000, 100, 10);
        let b = Dataset::generate(7, 2_000, 100, 10);
        let c = Dataset::generate(8, 2_000, 100, 10);
        assert_eq!(a.checksum(), b.checksum());
        assert_ne!(a.checksum(), c.checksum());
        assert_eq!(stream(7, 0).checksum(500), stream(7, 0).checksum(500));
        assert_ne!(stream(7, 0).checksum(500), stream(8, 0).checksum(500));
        assert_ne!(stream(7, 0).checksum(500), stream(7, 1).checksum(500));
        assert!(a.checksum() < 1 << 48);
    }

    #[test]
    fn clients_insert_disjoint_ids_and_follow_the_mix() {
        let (mut a, mut b) = (stream(3, 0), stream(3, 1));
        let mut ids = std::collections::BTreeSet::new();
        let mut inserts = 0;
        for _ in 0..4_000 {
            for op in [a.next_op(), b.next_op()] {
                if let Op::NewOrder { order_id, .. } = op {
                    assert!(order_id >= 1_000 && ids.insert(order_id));
                    inserts += 1;
                }
            }
        }
        assert!((1_800..2_200).contains(&inserts), "{inserts}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.2);
        let mut rng = Rng::new(7);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[50] * 10);
    }

    #[test]
    fn expected_answers_are_self_consistent() {
        let d = Dataset::generate(1, 5_000, 100, 10);
        let a = expected_answers(&d);
        assert_eq!(a[1].values().map(|g| g.0).sum::<u64>(), 5_000);
        assert_eq!(a[1].values().map(|g| g.1).sum::<i64>(), a[0][""].1);
        assert_eq!(a[3]["0"], (5_000, 0));
        assert_eq!(a[1]["Los Gatos"], a[2][""]);
        assert_eq!(a[5].values().map(|g| g.1).sum::<i64>(), a[2][""].1);
        assert!(a[4][""].1 > 0);
    }
}
