//! The synthetic ensemble-trace generator.
//!
//! Generates block-device request streams whose statistics reproduce the
//! properties the SieveStore paper's argument rests on:
//!
//! * **O1 (popularity skew)** — each server's daily accesses are a mixture
//!   of a small, Zipf-distributed *hot set* and a large, Poisson-sparse
//!   *cold window*. At the ensemble level the top ~1 % of daily blocks
//!   absorb a large access share while ≥99 % of blocks see ≤10 accesses.
//! * **O2 (skew variation)** — hot-access shares differ per server, get
//!   modulated per volume and per day, and hot sets *drift*: each day the
//!   hot window advances by a configured fraction of its size, so
//!   consecutive days overlap strongly while distant days diverge.
//! * **Load shape** — diurnal intensity waves, day-to-day volume
//!   variation, and rare, independent per-server burst minutes (the paper
//!   relies on correlated cross-server bursts being rare).
//!
//! Generation is deterministic given the [`EnsembleConfig`] seed, and
//! day-partitioned: [`SyntheticTrace::day_requests`] materializes one
//! calendar day at a time, in timestamp order.

use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};
use sievestore_types::{
    BlockAddr, Day, Micros, Request, RequestKind, ServerId, VolumeId, BLOCKS_PER_PAGE, BLOCK_SIZE,
    GIB,
};

use crate::model::{EnsembleConfig, ServerConfig};
use crate::zipf::Zipf;

/// Request-size mixture (in 512-byte blocks) with its sampling weights.
///
/// Hot accesses skew small (index/metadata pages); cold accesses skew large
/// (scans), which matches the paper's ~11 KiB mean request and lets the
/// per-block popularity skew stay sharp.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeMix {
    sizes: Vec<u32>,
    cumulative: Vec<f64>,
    mean: f64,
}

impl SizeMix {
    /// Builds a mixture from `(size_in_blocks, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, any size is zero or any weight is
    /// non-positive.
    pub fn new(entries: &[(u32, f64)]) -> Self {
        assert!(!entries.is_empty(), "size mixture must be nonempty");
        let total: f64 = entries.iter().map(|(_, w)| *w).sum();
        let mut sizes = Vec::with_capacity(entries.len());
        let mut cumulative = Vec::with_capacity(entries.len());
        let mut acc = 0.0;
        let mut mean = 0.0;
        for &(size, weight) in entries {
            assert!(size > 0, "request size must be positive");
            assert!(weight > 0.0, "mixture weight must be positive");
            acc += weight / total;
            sizes.push(size);
            cumulative.push(acc);
            mean += size as f64 * weight / total;
        }
        // Guard against floating-point undershoot at the end.
        *cumulative.last_mut().expect("nonempty") = 1.0;
        SizeMix {
            sizes,
            cumulative,
            mean,
        }
    }

    /// The default mixture for hot (high-reuse) requests: mean ~4 blocks.
    pub fn hot_default() -> Self {
        SizeMix::new(&[(1, 0.15), (2, 0.15), (4, 0.25), (8, 0.35), (16, 0.10)])
    }

    /// The default mixture for cold (scan-like) requests: mean ~27 blocks,
    /// giving the ensemble the paper's ~11 KiB mean request size.
    pub fn cold_default() -> Self {
        SizeMix::new(&[
            (4, 0.08),
            (8, 0.37),
            (16, 0.20),
            (32, 0.15),
            (64, 0.12),
            (128, 0.06),
            (256, 0.02),
        ])
    }

    /// Mean size in blocks.
    pub fn mean_blocks(&self) -> f64 {
        self.mean
    }

    /// Draws one size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let u = rng.random::<f64>();
        let idx = self
            .cumulative
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.sizes.len() - 1);
        self.sizes[idx]
    }
}

/// Plan for one (server, day): resolved windows, shares and rates.
#[derive(Debug, Clone)]
struct ServerDayPlan {
    server: ServerId,
    /// Per-volume state.
    volumes: Vec<VolumeDayPlan>,
    /// Fraction of requests that are reads.
    read_fraction: f64,
    /// Per-minute-of-day relative weights (cumulative, over active minutes).
    minutes: GuidedCdf,
    /// First active minute-of-day (nonzero only on a partial first day).
    first_minute: u32,
}

/// Hot/warm-set geometry: popularity ranks address 16-block *chunks*, and
/// a per-day map assigns each chunk rank a concrete block region. Ranks
/// keep their region across days unless a daily churn event remaps them to
/// a fresh region, so the popular set's identity persists (the paper's
/// "significant overlap in successive days") while drifting over longer
/// separations.
const HOT_CHUNK_BLOCKS: u64 = 16;

/// Placement parameters for one tier's chunk map (see [`HOT_CHUNK_BLOCKS`]).
#[derive(Debug, Clone, Copy)]
struct TierGeometry {
    /// Seed domain separating tiers.
    domain: u64,
    /// Volume index within the server.
    volume_idx: usize,
    /// Number of popularity-ranked chunks.
    chunks: u64,
    /// First block of the tier's pool.
    pool_base: u64,
    /// Blocks per remap region within the pool.
    span: u64,
}

#[derive(Debug, Clone)]
struct VolumeDayPlan {
    volume: VolumeId,
    /// Volume capacity in blocks (scaled).
    capacity: u64,
    /// Randomly-sampled (head + cold) requests to emit.
    random_requests: u64,
    /// Probability that a random request targets the head (request-level).
    p_req_head: f64,
    /// Base block of each head chunk, indexed by popularity rank.
    head_map: Vec<u64>,
    /// Zipf sampler over head chunk ranks.
    zipf: Zipf,
    /// Base block of each warm chunk.
    warm_map: Vec<u64>,
    /// Mean scheduled requests per warm chunk this day (each request
    /// covers the whole chunk, so this is also the per-block count).
    warm_requests_per_chunk: f64,
    /// Start of the day's cold window.
    cold_start: u64,
    /// Cold window length in blocks.
    cold_len: u64,
}

/// A deterministic synthetic ensemble trace.
///
/// # Examples
///
/// ```
/// use sievestore_trace::{EnsembleConfig, SyntheticTrace};
/// use sievestore_types::Day;
///
/// let trace = SyntheticTrace::new(EnsembleConfig::tiny(42)).unwrap();
/// let day0 = trace.day_requests(Day::new(0));
/// assert!(!day0.is_empty());
/// // Timestamps are sorted and within the day.
/// assert!(day0.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    config: EnsembleConfig,
    hot_mix: SizeMix,
    cold_mix: SizeMix,
}

impl SyntheticTrace {
    /// Creates a generator for the given ensemble.
    ///
    /// # Errors
    ///
    /// Returns [`sievestore_types::SieveError::InvalidConfig`] if the
    /// configuration fails validation.
    pub fn new(config: EnsembleConfig) -> Result<Self, sievestore_types::SieveError> {
        config.validate()?;
        Ok(SyntheticTrace {
            config,
            hot_mix: SizeMix::hot_default(),
            cold_mix: SizeMix::cold_default(),
        })
    }

    /// Returns the generator's configuration.
    pub fn config(&self) -> &EnsembleConfig {
        &self.config
    }

    /// Returns the number of calendar days the trace spans.
    pub fn days(&self) -> u16 {
        self.config.days
    }

    /// Deterministic sub-seed for a (domain, day, server) triple.
    fn sub_seed(&self, domain: u64, day: u16, server: usize) -> u64 {
        // SplitMix64-style mixing of the master seed with the coordinates.
        let mut z = self
            .config
            .seed
            .wrapping_add(domain.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((day as u64) << 32)
            .wrapping_add(server as u64)
            .wrapping_add(1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Day-to-day intensity multiplier for a server. Combines an
    /// ensemble-wide wave with per-server noise so daily totals span the
    /// paper's 335–1190 GB range around the 685 GB mean.
    fn day_multiplier(&self, day: u16, server: usize) -> f64 {
        let mut rng = SmallRng::seed_from_u64(self.sub_seed(1, day, server));
        let mut ensemble = SmallRng::seed_from_u64(self.sub_seed(2, day, usize::MAX));
        // Shared component: smooth wave over the week, +/- 25 %.
        let shared = 1.0 + 0.25 * (day as f64 * 1.9 + ensemble.random::<f64>() * 0.5).sin();
        // Per-server component: log-uniform in [0.7, 1.45].
        let noise = 0.7 * (1.45f64 / 0.7).powf(rng.random::<f64>());
        (shared * noise).clamp(0.5, 1.8)
    }

    /// Effective hot-access share (block-level) for a server on a day.
    fn hot_share(&self, server: &ServerConfig, server_idx: usize, day: u16) -> f64 {
        let mut rng = SmallRng::seed_from_u64(self.sub_seed(3, day, server_idx));
        // Deterministic per-day phase; a sine plus noise produces both the
        // smooth drift and the abrupt day-to-day changes of Figure 3(c).
        let wave = (day as f64 * 2.39 + server_idx as f64 * 0.77).sin();
        let noise = rng.random::<f64>() * 2.0 - 1.0;
        let share =
            server.hot_access_share + server.hot_share_amplitude * (0.6 * wave + 0.4 * noise);
        share.clamp(0.02, 0.97)
    }

    /// Builds the per-minute cumulative load profile for a (server, day).
    fn minute_profile(
        &self,
        server: &ServerConfig,
        server_idx: usize,
        day: u16,
    ) -> (Vec<f64>, u32) {
        let first_minute = if day == 0 {
            self.config.first_day_start_hour * 60
        } else {
            0
        };
        let mut rng = SmallRng::seed_from_u64(self.sub_seed(4, day, server_idx));
        let minutes = 24 * 60 - first_minute;
        let mut weights = Vec::with_capacity(minutes as usize);
        // Choose this day's burst minutes up front.
        let bursts = server.burst_minutes_per_day;
        let mut burst_set = std::collections::HashSet::new();
        let n_bursts = {
            // Poisson-ish: floor plus Bernoulli remainder.
            let base = bursts.floor() as u32;
            let extra = rng.random::<f64>() < bursts.fract();
            base + extra as u32
        };
        while (burst_set.len() as u32) < n_bursts.min(minutes) {
            burst_set.insert(rng.random_range(0..minutes));
        }
        for m in 0..minutes {
            let minute_of_day = first_minute + m;
            let hour = minute_of_day as f64 / 60.0;
            let wave = 1.0
                + server.diurnal_amplitude
                    * ((hour - server.diurnal_peak_hour) / 24.0 * std::f64::consts::TAU).cos();
            let jitter = 0.85 + 0.3 * rng.random::<f64>();
            let burst = if burst_set.contains(&m) {
                server.burst_multiplier
            } else {
                1.0
            };
            weights.push(wave.max(0.05) * jitter * burst);
        }
        // Cumulative-normalize.
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        (weights, first_minute)
    }

    /// Builds the rank→chunk-base map for one (tier, volume, day).
    ///
    /// Every rank's home region is at `pool_base`. Each day, each rank
    /// independently gets remapped to that day's fresh region with
    /// probability `drift_per_day`; a rank's block is the one from its
    /// *most recent* remap. Consecutive days therefore share `1 - drift`
    /// of the popular set (identity included — the heavy head stays put
    /// unless churned), while distant days diverge geometrically, matching
    /// observation O2.
    fn chunk_map(&self, tier: TierGeometry, server_idx: usize, day: u16) -> Vec<u64> {
        let TierGeometry {
            domain,
            volume_idx,
            chunks,
            pool_base,
            span,
        } = tier;
        let churn = self.config.servers[server_idx]
            .drift_per_day
            .clamp(0.0, 1.0);
        let threshold = (churn * u64::MAX as f64) as u64;
        let mut map = Vec::with_capacity(chunks as usize);
        for rank in 0..chunks {
            let mut base = pool_base + (rank * HOT_CHUNK_BLOCKS) % span; // home
            for d in (1..=day as u64).rev() {
                let h = self.sub_seed(
                    domain + volume_idx as u64 * 131 + rank * 1009,
                    d as u16,
                    server_idx,
                );
                if h < threshold {
                    base = pool_base + d * span + (rank * HOT_CHUNK_BLOCKS) % span;
                    break;
                }
            }
            map.push(base);
        }
        map
    }

    /// Resolves the full plan for a (server, day).
    fn server_day_plan(&self, server_idx: usize, day: u16) -> ServerDayPlan {
        let server = &self.config.servers[server_idx];
        let scale = self.config.scale;
        let day_mult = self.day_multiplier(day, server_idx);
        let day_fraction = if day == 0 {
            (24.0 - self.config.first_day_start_hour as f64) / 24.0
        } else {
            1.0
        };
        // Target block accesses for the day (scaled).
        let target_blocks = (server.daily_gb * day_mult * day_fraction * (GIB as f64)
            / BLOCK_SIZE as f64
            / scale.denominator() as f64)
            .max(1.0);

        let p_hot_blocks = self.hot_share(server, server_idx, day);
        let mh = self.hot_mix.mean_blocks();
        let mc = self.cold_mix.mean_blocks();
        let total_weight: f64 = server.volumes.iter().map(|v| v.weight).sum();

        let mut volumes = Vec::with_capacity(server.volumes.len());
        for (v_idx, vol) in server.volumes.iter().enumerate() {
            let vshare = vol.weight / total_weight;
            let capacity = vol.blocks(scale).max(4096);
            let vol_target = target_blocks * vshare;

            // This volume's effective popular-access share (the per-volume
            // multiplier is how Figure 3(b)'s volume-to-volume skew
            // variation arises), split between the Zipf *head* and the
            // quasi-periodic *warm* tier.
            let popular_v = (p_hot_blocks * vol.hot_share_mult).clamp(0.0, 0.95);
            let warm_share = popular_v * server.warm_within_hot;
            let head_share = popular_v - warm_share;

            // Warm tier: full-chunk requests at a target per-block daily
            // count, scheduled quasi-periodically (long, regular gaps that
            // defeat LRU churn but accumulate within a sieving window).
            let warm_target_blocks = vol_target * warm_share;
            let warm_count = (server.warm_daily_accesses * day_fraction).max(1.0);
            let warm_chunks =
                ((warm_target_blocks / (warm_count * HOT_CHUNK_BLOCKS as f64)).round() as u64)
                    .max(2);

            // Random loop handles head + cold.
            let p_req_head = {
                // Request-level head probability among random requests.
                let head_blocks = vol_target * head_share;
                let cold_blocks = vol_target * (1.0 - popular_v);
                let h = head_blocks / mh;
                let c = cold_blocks / mc;
                if h + c > 0.0 {
                    h / (h + c)
                } else {
                    0.0
                }
            };
            let mean_req_blocks = p_req_head * mh + (1.0 - p_req_head) * mc;
            let random_requests =
                ((vol_target * (1.0 - warm_share)) / mean_req_blocks).ceil() as u64;

            // Cold windows live in the upper half of the volume (the lower
            // half holds the head and warm pools) and advance day by day so
            // most cold blocks are fresh each day (compulsory misses
            // dominate, as in the trace).
            let vol_cold_blocks = random_requests as f64 * (1.0 - p_req_head) * mc;
            let cold_len =
                ((vol_cold_blocks / server.cold_density) as u64).clamp(256, capacity / 3);
            let cold_region = capacity / 2;
            let cold_start = {
                let step = cold_len + cold_len / 3;
                cold_region + (day as u64 * step) % (cold_region.saturating_sub(cold_len)).max(1)
            };

            // Pools: the lower half of the volume, one quarter each for the
            // head and warm tiers, split into one home region plus one
            // fresh remap region per day.
            let span_of = |quarter: u64| {
                ((quarter / (self.config.days as u64 + 1)) / HOT_CHUNK_BLOCKS * HOT_CHUNK_BLOCKS)
                    .max(HOT_CHUNK_BLOCKS)
            };
            let head_span = span_of(capacity / 4);
            let warm_span = span_of(capacity / 4);
            let head_len = ((cold_len as f64 * server.hot_set_frac) as u64)
                .max(4 * HOT_CHUNK_BLOCKS)
                .min(head_span);
            let head_chunks = (head_len / HOT_CHUNK_BLOCKS).max(1);
            let warm_chunks = warm_chunks.min((warm_span / HOT_CHUNK_BLOCKS).max(1));
            let head_map = self.chunk_map(
                TierGeometry {
                    domain: 6,
                    volume_idx: v_idx,
                    chunks: head_chunks,
                    pool_base: 0,
                    span: head_span,
                },
                server_idx,
                day,
            );
            let warm_map = self.chunk_map(
                TierGeometry {
                    domain: 7_000_003,
                    volume_idx: v_idx,
                    chunks: warm_chunks,
                    pool_base: capacity / 4,
                    span: warm_span,
                },
                server_idx,
                day,
            );

            volumes.push(VolumeDayPlan {
                volume: VolumeId::new(v_idx as u8),
                capacity,
                random_requests,
                p_req_head,
                head_map,
                zipf: Zipf::new(head_chunks, server.zipf_s).expect("validated exponent"),
                warm_map,
                warm_requests_per_chunk: warm_count,
                cold_start,
                cold_len,
            });
        }

        let (minute_cum, first_minute) = self.minute_profile(server, server_idx, day);
        ServerDayPlan {
            server: ServerId::new(server_idx as u8),
            volumes,
            read_fraction: server.read_fraction,
            minutes: GuidedCdf::new(minute_cum),
            first_minute,
        }
    }

    /// Response-time model: seek+rotation base, queueing noise and a
    /// transfer term (~100 MB/s streaming).
    fn response_time<R: Rng + ?Sized>(rng: &mut R, len: u32) -> Micros {
        let base_us = 3_000.0;
        let queue_us = -2_000.0 * (1.0 - rng.random::<f64>()).ln();
        let xfer_us = len as f64 * BLOCK_SIZE as f64 / 100.0e6 * 1.0e6;
        Micros::new((base_us + queue_us + xfer_us) as u64)
    }

    /// Generates all requests of one server for one day, in time order.
    pub(crate) fn server_day_requests(
        &self,
        server_idx: usize,
        day: Day,
        sort_keys: &mut Vec<u128>,
    ) -> Vec<Request> {
        let plan = self.server_day_plan(server_idx, day.index());
        let mut rng = SmallRng::seed_from_u64(self.sub_seed(5, day.index(), server_idx));
        let day_base = day.start();
        // An upper bound (a warm chunk draws at most `floor + 1`): no regrowth.
        let bound = |v: &VolumeDayPlan| {
            v.random_requests as usize + v.warm_map.len() * (v.warm_requests_per_chunk as usize + 1)
        };
        let mut out = Vec::with_capacity(plan.volumes.iter().map(bound).sum());

        for vol in &plan.volumes {
            // Head + cold: randomly sampled through the diurnal profile.
            for _ in 0..vol.random_requests {
                let slot = plan.minutes.slot(rng.random::<f64>());
                let minute_of_day = plan.first_minute + slot as u32;
                let offset_us = rng.random_range(0..Micros::PER_MINUTE);
                let timestamp =
                    day_base + Micros::new(minute_of_day as u64 * Micros::PER_MINUTE + offset_us);

                // Head requests stay inside one 16-block chunk so the
                // popularity rank maps to a contiguous block range.
                let head = rng.random::<f64>() < vol.p_req_head;
                let (len, start_block) = if head {
                    let len = self.hot_mix.sample(&mut rng).min(HOT_CHUNK_BLOCKS as u32);
                    let rank = vol.zipf.sample(&mut rng);
                    let base = vol.head_map[(rank - 1) as usize];
                    let slack = HOT_CHUNK_BLOCKS - len as u64;
                    let offset = if slack == 0 {
                        0
                    } else {
                        rng.random_range(0..=slack)
                    };
                    (len, base + offset)
                } else {
                    let len = self.cold_mix.sample(&mut rng);
                    let span = vol.cold_len.saturating_sub(len as u64).max(1);
                    let pos = rng.random_range(0..span);
                    (len, vol.cold_start + pos)
                };
                // ~94 % of requests are 4 KiB-aligned (the paper reports
                // ~6 % unaligned).
                let start_block = if rng.random::<f64>() < 0.94 {
                    start_block - start_block % BLOCKS_PER_PAGE as u64
                } else {
                    start_block
                };
                let start_block = start_block.min(vol.capacity.saturating_sub(len as u64));

                let kind = if rng.random::<f64>() < plan.read_fraction {
                    RequestKind::Read
                } else {
                    RequestKind::Write
                };
                let response = Self::response_time(&mut rng, len);
                let start = BlockAddr::new(plan.server, vol.volume, start_block);
                out.push(Request::new(timestamp, start, len, kind).with_response_time(response));
            }

            // Warm tier: each chunk is re-read in full at quasi-periodic
            // times with long (~1.5-2 h), slightly jittered gaps — the
            // block-device-level reuse pattern left over once a host
            // buffer cache has absorbed all short-distance reuse.
            let active_start = Micros::new(plan.first_minute as u64 * Micros::PER_MINUTE);
            let active_span = Micros::from_days(1) - active_start;
            for chunk in &vol.warm_map {
                let n = {
                    let base = vol.warm_requests_per_chunk.floor() as u64;
                    let extra = rng.random::<f64>() < vol.warm_requests_per_chunk.fract();
                    (base + extra as u64).max(1)
                };
                let period = active_span.as_u64() / n;
                let phase = rng.random_range(0..period.max(1));
                for i in 0..n {
                    let jitter = (rng.random::<f64>() - 0.5) * 0.2 * period as f64;
                    let at = (i * period + phase).saturating_add_signed(jitter as i64);
                    let timestamp =
                        day_base + active_start + Micros::new(at.min(active_span.as_u64() - 1));
                    let kind = if rng.random::<f64>() < plan.read_fraction {
                        RequestKind::Read
                    } else {
                        RequestKind::Write
                    };
                    let len = HOT_CHUNK_BLOCKS as u32;
                    let response = Self::response_time(&mut rng, len);
                    let start = BlockAddr::new(plan.server, vol.volume, *chunk);
                    out.push(
                        Request::new(timestamp, start, len, kind).with_response_time(response),
                    );
                }
            }
        }
        crate::stream::sort_with(&mut out, sort_keys);
        out
    }

    /// Generates every request of one calendar day, across all servers, in
    /// timestamp order.
    ///
    /// # Panics
    ///
    /// Panics if `day` is outside the configured trace length.
    pub fn day_requests(&self, day: Day) -> Vec<Request> {
        assert!(
            day.index() < self.config.days,
            "day {} outside trace of {} days",
            day.index(),
            self.config.days
        );
        let mut keys = Vec::new();
        let mut all: Vec<Request> = Vec::new();
        for server_idx in 0..self.config.servers.len() {
            all.extend(self.server_day_requests(server_idx, day, &mut keys));
        }
        crate::stream::sort_with(&mut all, &mut keys);
        all
    }

    /// Generates the requests of one server on one day (used by the
    /// per-server cache experiments and the skew analyses).
    ///
    /// # Panics
    ///
    /// Panics if `server_idx` or `day` is out of range.
    pub fn server_day(&self, server_idx: usize, day: Day) -> Vec<Request> {
        assert!(
            server_idx < self.config.servers.len(),
            "server out of range"
        );
        assert!(day.index() < self.config.days, "day out of range");
        self.server_day_requests(server_idx, day, &mut Vec::new())
    }
}

/// A cumulative distribution (nondecreasing, ending at 1.0) with an exact
/// guide table: `guide[j]` counts the entries below `j / GUIDE_BUCKETS` (a
/// power of two, so exact). The count is monotone in the bound, so for `u`
/// in bucket `j` the first entry `>= u` lies in `guide[j]..=guide[j + 1]`.
#[derive(Debug, Clone)]
struct GuidedCdf {
    cum: Vec<f64>,
    guide: Vec<u32>,
}

const GUIDE_BUCKETS: usize = 4096;

impl GuidedCdf {
    fn new(cum: Vec<f64>) -> Self {
        let mut below = 0;
        let guide = (0..=GUIDE_BUCKETS)
            .map(|j| {
                let edge = j as f64 / GUIDE_BUCKETS as f64;
                below += cum[below..].iter().take_while(|&&c| c < edge).count();
                below as u32
            })
            .collect();
        GuidedCdf { cum, guide }
    }

    /// Index of the first entry `>= u`, clamped to the last entry: for
    /// `u` in `[0, 1]`, exactly a binary search over all of `cum`.
    fn slot(&self, u: f64) -> usize {
        let j = ((u * GUIDE_BUCKETS as f64) as usize).min(GUIDE_BUCKETS - 1);
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        (lo + self.cum[lo..hi].partition_point(|&c| c < u)).min(self.cum.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Scale;
    use std::collections::HashMap;

    /// Index of the first cumulative entry `>= u`, clamped to the last
    /// entry: the full binary search [`GuidedCdf::slot`] must reproduce.
    fn partition_point(cumulative: &[f64], u: f64) -> usize {
        let mut lo = 0usize;
        let mut hi = cumulative.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cumulative[mid] < u {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.min(cumulative.len() - 1)
    }

    fn tiny_trace(seed: u64) -> SyntheticTrace {
        SyntheticTrace::new(EnsembleConfig::tiny(seed)).unwrap()
    }

    #[test]
    fn size_mix_means_are_calibrated() {
        let hot = SizeMix::hot_default();
        let cold = SizeMix::cold_default();
        assert!(
            (3.0..6.0).contains(&hot.mean_blocks()),
            "{}",
            hot.mean_blocks()
        );
        assert!(
            (20.0..32.0).contains(&cold.mean_blocks()),
            "{}",
            cold.mean_blocks()
        );
    }

    #[test]
    fn size_mix_samples_only_configured_sizes() {
        let mix = SizeMix::new(&[(3, 1.0), (9, 2.0)]);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..1000 {
            let s = mix.sample(&mut rng);
            assert!(s == 3 || s == 9);
        }
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_size_mix_panics() {
        let _ = SizeMix::new(&[]);
    }

    #[test]
    fn day_requests_sorted_and_within_day() {
        let trace = tiny_trace(7);
        for d in 0..trace.days() {
            let day = Day::new(d);
            let reqs = trace.day_requests(day);
            assert!(!reqs.is_empty(), "day {d} empty");
            assert!(reqs.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
            assert!(reqs.iter().all(|r| r.timestamp >= day.start()));
            assert!(reqs.iter().all(|r| r.timestamp < day.end()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_trace(99).day_requests(Day::new(1));
        let b = tiny_trace(99).day_requests(Day::new(1));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny_trace(1).day_requests(Day::new(1));
        let b = tiny_trace(2).day_requests(Day::new(1));
        assert_ne!(a, b);
    }

    #[test]
    fn partial_first_day_starts_at_configured_hour() {
        let mut cfg = EnsembleConfig::tiny(3);
        cfg.first_day_start_hour = 17;
        let trace = SyntheticTrace::new(cfg).unwrap();
        let day0 = trace.day_requests(Day::new(0));
        let first = day0.first().unwrap().timestamp;
        assert!(first >= Micros::from_hours(17));
        // Later days start from midnight.
        let day1 = trace.day_requests(Day::new(1));
        let first1 = day1.first().unwrap().timestamp - Day::new(1).start();
        assert!(first1 < Micros::from_hours(2));
    }

    #[test]
    fn requests_stay_within_volume_capacity() {
        let trace = tiny_trace(11);
        let cfg = trace.config();
        for d in 0..trace.days() {
            for req in trace.day_requests(Day::new(d)) {
                let server = &cfg.servers[req.start.server.as_usize()];
                let vol = &server.volumes[req.start.volume.as_usize()];
                let cap = vol.blocks(cfg.scale);
                assert!(
                    req.start.block + req.len_blocks as u64 <= cap,
                    "request {req} exceeds volume capacity {cap}"
                );
            }
        }
    }

    #[test]
    fn read_fraction_is_respected() {
        let trace = tiny_trace(5);
        let reqs = trace.day_requests(Day::new(1));
        let reads = reqs.iter().filter(|r| r.kind.is_read()).count();
        let frac = reads as f64 / reqs.len() as f64;
        assert!((0.65..0.85).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn most_requests_are_page_aligned() {
        let trace = tiny_trace(5);
        let reqs = trace.day_requests(Day::new(1));
        let aligned = reqs
            .iter()
            .filter(|r| r.start.block % BLOCKS_PER_PAGE as u64 == 0)
            .count();
        let frac = aligned as f64 / reqs.len() as f64;
        assert!(frac > 0.88, "aligned fraction {frac}");
        assert!(frac < 0.99, "some requests must be unaligned, got {frac}");
    }

    #[test]
    fn response_times_are_plausible() {
        let trace = tiny_trace(5);
        for req in trace.day_requests(Day::new(0)) {
            assert!(req.response_time.as_u64() >= 3_000);
            assert!(
                req.response_time.as_u64() < 200_000,
                "{}",
                req.response_time
            );
        }
    }

    #[test]
    fn hot_blocks_repeat_and_cold_blocks_mostly_do_not() {
        let trace = tiny_trace(21);
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for req in trace.day_requests(Day::new(1)) {
            for b in req.blocks() {
                *counts.entry(b.raw()).or_insert(0) += 1;
            }
        }
        let mut sorted: Vec<u32> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sorted.iter().map(|&c| c as u64).sum();
        let top1_count = (sorted.len() / 100).max(1);
        let top1: u64 = sorted[..top1_count].iter().map(|&c| c as u64).sum();
        let share = top1 as f64 / total as f64;
        // Tiny ensemble is heavily hot-weighted; skew must be pronounced.
        assert!(share > 0.10, "top-1% share {share}");
        // A large majority of blocks should be touched <= 4 times.
        let low = sorted.iter().filter(|&&c| c <= 4).count();
        assert!(
            low as f64 / sorted.len() as f64 > 0.9,
            "low-reuse fraction {}",
            low as f64 / sorted.len() as f64
        );
    }

    #[test]
    fn hot_sets_drift_but_overlap_between_consecutive_days() {
        let trace = tiny_trace(33);
        let hot_set = |day: u16| {
            let mut counts: HashMap<u64, u32> = HashMap::new();
            for req in trace.day_requests(Day::new(day)) {
                for b in req.blocks() {
                    *counts.entry(b.raw()).or_insert(0) += 1;
                }
            }
            let mut v: Vec<(u64, u32)> = counts.into_iter().collect();
            v.sort_unstable_by_key(|&(_, count)| std::cmp::Reverse(count));
            let n = (v.len() / 100).max(10);
            v.truncate(n);
            v.into_iter()
                .map(|(b, _)| b)
                .collect::<std::collections::HashSet<u64>>()
        };
        let d1 = hot_set(1);
        let d2 = hot_set(2);
        let inter = d1.intersection(&d2).count() as f64;
        let overlap = inter / d1.len().min(d2.len()) as f64;
        assert!(overlap > 0.2, "consecutive-day hot overlap {overlap}");
        assert!(overlap < 0.999, "hot sets must drift, overlap {overlap}");
    }

    #[test]
    fn per_server_and_ensemble_views_agree() {
        let trace = tiny_trace(17);
        let day = Day::new(1);
        let merged = trace.day_requests(day);
        let split: usize = (0..trace.config().servers.len())
            .map(|s| trace.server_day(s, day).len())
            .sum();
        assert_eq!(merged.len(), split);
    }

    #[test]
    fn scale_reduces_volume() {
        let coarse =
            SyntheticTrace::new(EnsembleConfig::tiny(1).with_scale(Scale::new(64).unwrap()))
                .unwrap();
        let fine =
            SyntheticTrace::new(EnsembleConfig::tiny(1).with_scale(Scale::new(256).unwrap()))
                .unwrap();
        let c = coarse.day_requests(Day::new(1)).len();
        let f = fine.day_requests(Day::new(1)).len();
        assert!(c > 2 * f, "coarse {c} vs fine {f}");
    }

    proptest::proptest! {
        #[test]
        fn guided_slot_is_the_full_search(
            weights in proptest::collection::vec(0u32..4, 1..1500),
            heavy in proptest::collection::vec(0usize..1500, 0..4),
            draws in proptest::collection::vec(proptest::prelude::any::<u64>(), 64),
        ) {
            // Zero weights make flat stretches; a few heavy minutes span
            // many buckets, as burst minutes do.
            let mut weights: Vec<f64> = weights.into_iter().map(f64::from).collect();
            for h in heavy {
                let at = h % weights.len();
                weights[at] += 500.0;
            }
            let total: f64 = weights.iter().sum::<f64>().max(1.0);
            let mut acc = 0.0;
            let mut cum: Vec<f64> = weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc.min(1.0)
                })
                .collect();
            // Nondecreasing and ending at 1.0, as `minute_profile` builds it.
            *cum.last_mut().unwrap() = 1.0;
            let guided = GuidedCdf::new(cum.clone());
            let edges = (0..=GUIDE_BUCKETS).map(|j| j as f64 / GUIDE_BUCKETS as f64);
            let below_one = 1.0 - f64::EPSILON / 2.0;
            let random = draws.iter().map(|&d| (d >> 11) as f64 / (1u64 << 53) as f64);
            for u in edges.chain(cum.clone()).chain([0.0, below_one]).chain(random) {
                proptest::prop_assert_eq!(guided.slot(u), partition_point(&cum, u), "u = {}", u);
            }
        }
    }

    #[test]
    fn partition_point_finds_first_ge() {
        let cum = [0.25, 0.5, 0.75, 1.0];
        let guided = GuidedCdf::new(cum.to_vec());
        for (u, want) in [(0.0, 0), (0.25, 0), (0.26, 1), (0.99, 3), (1.0, 3)] {
            assert_eq!(partition_point(&cum, u), want, "u = {u}");
            assert_eq!(guided.slot(u), want, "u = {u}");
        }
    }
}
