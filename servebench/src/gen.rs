//! Seeded request generators for the three workloads.
//!
//! A request is a pure function of `(workload, seed, index)`, so the
//! same seed always produces the same inputs, whichever client thread
//! sends which index. The server receives only the generated bodies.

use std::fmt::Write as _;

/// Entries per table of the server's scenario and chiplet caches
/// (`nanocost_core::DEFAULT_CAPACITY`).
pub const CACHE_CAPACITY: usize = nanocost_core::DEFAULT_CAPACITY;

/// Distinct design points `explore` cycles over.
pub const HOT_SET: usize = 256;

/// Points per `sweep` batch.
pub const BATCH_POINTS: usize = 64;

/// `sweep` grid size as a power of two: 2^18 points, 64× the cache.
pub const SWEEP_GRID_BITS: u32 = 18;

/// `sweep` batches sent before timing: enough to fill the point table,
/// so every timed miss also evicts.
pub const SWEEP_WARM_BATCHES: u64 = (CACHE_CAPACITY / BATCH_POINTS) as u64;

/// Distinct `(λ, N_tr, N_w, Y)` points `optimum` revisits.
pub const OPTIMUM_HOT: usize = 64;

/// One `optimum` request in this many is a never-seen point.
pub const OPTIMUM_MISS_EVERY: u64 = 16;

/// Upper end of a client's think time before each request.
///
/// A closed loop with no think time phase-locks onto any periodic timer
/// in the server: at this commit `serve` accepts connections on a 5 ms
/// poll, so a loop whose service time sits near 5 ms jumps between a
/// 5 ms and a 10 ms cycle on tiny speed changes. A seeded think time
/// spread evenly over one such period spreads arrivals over its phase,
/// which makes every metric a smooth function of the server's speed.
pub const THINK_MAX: std::time::Duration = std::time::Duration::from_millis(5);

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-point requests over a small hot set: the connection path.
    Explore,
    /// 64-point batches that always miss and evict: cache write side.
    Sweep,
    /// Cost-optimal `s_d` queries that mostly hit: trace replay.
    Optimum,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Explore, Workload::Sweep, Workload::Optimum];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Sweep => "sweep",
            Workload::Optimum => "optimum",
        }
    }
}

/// The model endpoint a request goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/cost`: eq. 4 at one point.
    Cost,
    /// `POST /v1/yield`: eq. 7 at one point.
    Yield,
    /// `POST /v1/chiplet`: Eq.C1–C5 at one scenario.
    Chiplet,
    /// `POST /v1/batch`: eq. 4 over many points.
    Batch,
    /// `POST /v1/optimum`: the §3.1 `s_d*` search.
    Optimum,
}

impl Endpoint {
    /// The endpoint label `serve` uses in metrics and traces.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Cost => "cost",
            Endpoint::Yield => "yield",
            Endpoint::Chiplet => "chiplet",
            Endpoint::Batch => "batch",
            Endpoint::Optimum => "optimum",
        }
    }

    /// The per-endpoint child span `serve` opens inside a request.
    #[must_use]
    pub fn span_name(self) -> &'static str {
        match self {
            Endpoint::Cost => "serve.endpoint.cost",
            Endpoint::Yield => "serve.endpoint.yield",
            Endpoint::Chiplet => "serve.endpoint.chiplet",
            Endpoint::Batch => "serve.endpoint.batch",
            Endpoint::Optimum => "serve.endpoint.optimum",
        }
    }

    /// The request path.
    #[must_use]
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Cost => "/v1/cost",
            Endpoint::Yield => "/v1/yield",
            Endpoint::Chiplet => "/v1/chiplet",
            Endpoint::Batch => "/v1/batch",
            Endpoint::Optimum => "/v1/optimum",
        }
    }
}

/// One design point. Every request carries at least one, so each layer
/// can be timed on the inputs of every workload. Fields an endpoint
/// does not take are still filled in, but are not sent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Feature size `λ` in microns.
    pub lambda_um: f64,
    /// Decompression index `s_d`.
    pub sd: f64,
    /// Transistor count `N_tr`.
    pub transistors: f64,
    /// Wafer volume `N_w`.
    pub volume: u64,
    /// Fab yield `Y`.
    pub fab_yield: f64,
    /// Explicit mask-set cost; `None` lets the server look it up.
    pub mask_cost: Option<f64>,
}

/// The chiplet split of a `/v1/chiplet` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// Shipped units.
    pub units: u64,
    /// Chiplets per package (also the distinct designs).
    pub chiplets: u32,
    /// Silicon-interposer assembly (`"si"`) instead of RDL.
    pub silicon: bool,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Target endpoint.
    pub endpoint: Endpoint,
    /// The design points it prices (64 for a batch, else one).
    pub points: Vec<Point>,
    /// The chiplet split, for `/v1/chiplet`.
    pub split: Option<Split>,
    /// The JSON body sent.
    pub body: String,
}

impl Query {
    fn new(endpoint: Endpoint, points: Vec<Point>, split: Option<Split>) -> Query {
        let body = match endpoint {
            Endpoint::Batch => {
                let mut body = String::from("{\"queries\":[");
                for (i, p) in points.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push_str(&cost_json(p));
                }
                body.push_str("]}");
                body
            }
            Endpoint::Cost => cost_json(&points[0]),
            Endpoint::Yield => {
                let p = &points[0];
                format!(
                    "{{\"lambda_um\":{},\"sd\":{},\"transistors\":{},\"volume\":{}}}",
                    p.lambda_um, p.sd, p.transistors, p.volume
                )
            }
            Endpoint::Optimum => {
                let p = &points[0];
                format!(
                    "{{\"lambda_um\":{},\"transistors\":{},\"volume\":{},\"fab_yield\":{}}}",
                    p.lambda_um, p.transistors, p.volume, p.fab_yield
                )
            }
            Endpoint::Chiplet => {
                let (p, s) = (&points[0], split.expect("a chiplet query has a split"));
                format!(
                    "{{\"lambda_um\":{},\"sd\":{},\"transistors\":{},\"units\":{},\"chiplets\":{},\"distinct_designs\":{},\"assembly\":\"{}\"}}",
                    p.lambda_um,
                    p.sd,
                    p.transistors,
                    s.units,
                    s.chiplets,
                    s.chiplets,
                    if s.silicon { "si" } else { "rdl" }
                )
            }
        };
        Query {
            endpoint,
            points,
            split,
            body,
        }
    }

    /// The full HTTP/1.1 request, head and body in one buffer.
    #[must_use]
    pub fn http(&self) -> Vec<u8> {
        let mut out = String::with_capacity(self.body.len() + 128);
        let _ = write!(
            out,
            "POST {} HTTP/1.1\r\nHost: servebench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            self.endpoint.path(),
            self.body.len(),
            self.body
        );
        out.into_bytes()
    }

    /// One identity per cache entry the request looks up: the server's
    /// cache key inputs for each point, tagged with the table.
    #[must_use]
    pub fn cache_keys(&self) -> Vec<String> {
        match self.endpoint {
            Endpoint::Batch => self
                .points
                .iter()
                .map(|p| format!("cost:{}", cost_json(p)))
                .collect(),
            Endpoint::Cost => vec![format!("cost:{}", self.body)],
            Endpoint::Yield => vec![format!("yield:{}", self.body)],
            Endpoint::Optimum => vec![format!("optimum:{}", self.body)],
            Endpoint::Chiplet => vec![format!("chiplet:{}", self.body)],
        }
    }
}

fn cost_json(p: &Point) -> String {
    let mut s = format!(
        "{{\"lambda_um\":{},\"sd\":{},\"transistors\":{},\"volume\":{},\"fab_yield\":{}",
        p.lambda_um, p.sd, p.transistors, p.volume, p.fab_yield
    );
    if let Some(mask) = p.mask_cost {
        let _ = write!(s, ",\"mask_cost\":{mask}");
    }
    s.push('}');
    s
}

/// SplitMix64 finalizer: a stateless, well-mixed 64-bit hash.
#[must_use]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded stream of well-mixed values.
struct Stream(u64);

impl Stream {
    fn new(seed: u64, salt: u64) -> Stream {
        Stream(mix64(seed ^ mix64(salt)))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix64(self.0)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[(self.next() % items.len() as u64) as usize]
    }

    /// A value in `[lo, hi)` rounded to one decimal.
    fn decimal(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 10.0).round() / 10.0
    }
}

const LAMBDAS: [f64; 8] = [0.35, 0.25, 0.18, 0.15, 0.13, 0.11, 0.09, 0.07];
const VOLUMES: [u64; 8] = [
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000,
];
const YIELDS: [f64; 4] = [0.4, 0.6, 0.8, 0.9];
/// Mask-set quotes the sweep prices at, one per entry of [`LAMBDAS`].
const SWEEP_MASKS: [f64; 8] = [1.5e5, 2.5e5, 4e5, 6e5, 8e5, 1.2e6, 1.6e6, 2.4e6];
const CHIPLET_LAMBDAS: [f64; 4] = [0.18, 0.13, 0.09, 0.07];
const UNITS: [u64; 3] = [100_000, 1_000_000, 10_000_000];
const CHIPLETS: [u32; 4] = [1, 2, 4, 8];

fn random_point(s: &mut Stream) -> Point {
    Point {
        lambda_um: s.pick(&LAMBDAS),
        sd: s.decimal(150.0, 1_400.0),
        transistors: (s.next() % 49 + 2) as f64 * 1e6,
        volume: s.pick(&VOLUMES),
        fab_yield: s.pick(&YIELDS),
        mask_cost: None,
    }
}

/// The request generator of one workload and seed.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    seed: u64,
    /// `explore`: the hot set; `optimum`: the revisited points.
    hot: Vec<Query>,
    /// `sweep`: odd multipliers and xor keys of the grid permutation.
    perm: [(u64, u64); 3],
}

impl Generator {
    /// The generator of `workload` under `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let mut s = Stream::new(seed, workload as u64 + 1);
        let hot = match workload {
            Workload::Explore => (0..HOT_SET)
                .map(|k| match k % 4 {
                    0 | 1 => Query::new(Endpoint::Cost, vec![random_point(&mut s)], None),
                    2 => Query::new(Endpoint::Yield, vec![random_point(&mut s)], None),
                    _ => {
                        // Kept within what one wafer can carry.
                        let p = Point {
                            lambda_um: s.pick(&CHIPLET_LAMBDAS),
                            sd: s.decimal(150.0, 650.0),
                            transistors: (s.next() % 11 + 2) as f64 * 1e7,
                            ..random_point(&mut s)
                        };
                        let split = Split {
                            units: s.pick(&UNITS),
                            chiplets: s.pick(&CHIPLETS),
                            silicon: s.next() % 2 == 1,
                        };
                        Query::new(Endpoint::Chiplet, vec![p], Some(split))
                    }
                })
                .collect(),
            Workload::Optimum => (0..OPTIMUM_HOT)
                .map(|_| Query::new(Endpoint::Optimum, vec![random_point(&mut s)], None))
                .collect(),
            Workload::Sweep => Vec::new(),
        };
        let mut perm = [(0, 0); 3];
        for round in &mut perm {
            *round = (s.next() | 1, s.next());
        }
        Generator {
            workload,
            seed,
            hot,
            perm,
        }
    }

    /// Requests sent before timing starts, so caches are warm.
    #[must_use]
    pub fn warmup(&self) -> Vec<Query> {
        match self.workload {
            Workload::Explore | Workload::Optimum => self.hot.clone(),
            Workload::Sweep => (0..SWEEP_WARM_BATCHES)
                .map(|b| self.sweep_batch(b))
                .collect(),
        }
    }

    /// The `index`-th timed request.
    #[must_use]
    pub fn request(&self, index: u64) -> Query {
        let pick = mix64(self.seed ^ mix64(index ^ 0x5eed));
        match self.workload {
            Workload::Explore => {
                // The hot set repeats cost, cost, yield, chiplet, so
                // lane `index % 4` keeps the mix at 50/25/25.
                let slot = (pick % (HOT_SET / 4) as u64) as usize;
                self.hot[slot * 4 + (index % 4) as usize].clone()
            }
            Workload::Sweep => self.sweep_batch(index + SWEEP_WARM_BATCHES),
            Workload::Optimum => {
                if self.is_fresh(index) {
                    // A transistor count off the hot set's 1e6 lattice,
                    // unique per index: never seen by the cache.
                    let mut s = Stream::new(self.seed, index ^ 0x0f7e);
                    let mut p = random_point(&mut s);
                    p.transistors += (index / OPTIMUM_MISS_EVERY + 1) as f64;
                    Query::new(Endpoint::Optimum, vec![p], None)
                } else {
                    self.hot[(pick % OPTIMUM_HOT as u64) as usize].clone()
                }
            }
        }
    }

    /// How long a client thinks before sending the `index`-th request:
    /// seeded, uniform in `[0, THINK_MAX)`.
    #[must_use]
    pub fn think(&self, index: u64) -> std::time::Duration {
        let max = THINK_MAX.as_nanos() as u64;
        std::time::Duration::from_nanos(mix64(self.seed ^ mix64(index ^ 0x7417)) % max)
    }

    /// Whether the `index`-th `optimum` request is a never-seen point.
    #[must_use]
    pub fn is_fresh(&self, index: u64) -> bool {
        self.workload == Workload::Optimum && index % OPTIMUM_MISS_EVERY == OPTIMUM_MISS_EVERY - 1
    }

    /// Whether the `index`-th response is in the seeded sample that is
    /// compared with an in-process answer.
    #[must_use]
    pub fn sampled(&self, index: u64) -> bool {
        mix64(self.seed ^ mix64(index ^ 0xc0ec)).is_multiple_of(16)
    }

    /// Grid batch `b`: points `64·b ..` of the seeded grid permutation.
    fn sweep_batch(&self, b: u64) -> Query {
        let points = (0..BATCH_POINTS as u64)
            .map(|k| self.grid_point(self.permute(b * BATCH_POINTS as u64 + k)))
            .collect();
        Query::new(Endpoint::Batch, points, None)
    }

    /// A seeded bijection on `[0, 2^18)`: odd multiply, xor key and
    /// xor-shift are each invertible modulo a power of two.
    fn permute(&self, i: u64) -> u64 {
        let mask = (1u64 << SWEEP_GRID_BITS) - 1;
        let mut x = i & mask;
        for &(mul, key) in &self.perm {
            x = x.wrapping_mul(mul) & mask;
            x ^= key & mask;
            x ^= x >> (SWEEP_GRID_BITS / 2);
        }
        x
    }

    /// Decodes a grid index into its design point: 3 bits of `λ`,
    /// 6 of `s_d`, 4 of `N_tr`, 3 of `N_w` and 2 of `Y`.
    fn grid_point(&self, g: u64) -> Point {
        let field = |shift: u32, bits: u32| ((g >> shift) & ((1 << bits) - 1)) as usize;
        let lambda = field(0, 3);
        Point {
            lambda_um: LAMBDAS[lambda],
            sd: 150.0 + 20.0 * field(3, 6) as f64,
            transistors: (2 + field(9, 4)) as f64 * 2e6,
            volume: VOLUMES[field(13, 3)],
            fab_yield: YIELDS[field(16, 2)],
            mask_cost: Some(SWEEP_MASKS[lambda]),
        }
    }

    /// Size of the `sweep` grid the batches walk.
    #[must_use]
    pub fn sweep_grid_size() -> u64 {
        1 << SWEEP_GRID_BITS
    }
}
