//! A row-based standard-cell placer with simulated-annealing wirelength
//! optimization.
//!
//! The paper treats `s_d` as a *choice* — "designs using the same library
//! of cells [show] substantially different design densities" (§2.2.1),
//! attributable to "specific design algorithms/methodologies employed".
//! This module is that algorithmic knob made concrete: the same netlist
//! placed into a wider or narrower die trades wirelength (→ delay,
//! → iterations) against density (→ silicon cost), and the annealer
//! quantifies how much wirelength a given density budget costs.

use nanocost_numeric::Rng64;

use crate::cell::{standard_library, CellTemplate};
use crate::error::LayoutError;
use crate::grid::LambdaGrid;
use crate::layout::Layout;
use crate::route::{route_channel, RoutedChannel, Span};

/// A gate-level netlist over library cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// Library index per instance.
    instances: Vec<usize>,
    /// Nets: each a list of instance ids (≥ 2).
    nets: Vec<Vec<usize>>,
    /// The cell library the indices refer to.
    library: Vec<CellTemplate>,
}

impl Netlist {
    /// Generates a random netlist of `n_cells` instances from the
    /// standard library, with `n_nets` two-to-four-pin nets biased toward
    /// locality (neighboring instance ids — a crude Rent's-rule stand-in
    /// so optimization has structure to find).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] for fewer than two cells
    /// or zero nets.
    pub fn random(n_cells: usize, n_nets: usize, seed: u64) -> Result<Self, LayoutError> {
        if n_cells < 2 {
            return Err(LayoutError::InvalidParameter {
                name: "n_cells",
                reason: "need at least two cells",
            });
        }
        if n_nets == 0 {
            return Err(LayoutError::InvalidParameter {
                name: "n_nets",
                reason: "need at least one net",
            });
        }
        let library = standard_library();
        let mut rng = Rng64::seed_from_u64(seed);
        let instances: Vec<usize> = (0..n_cells)
            .map(|_| rng.random_range(0..library.len()))
            .collect();
        let mut nets = Vec::with_capacity(n_nets);
        for _ in 0..n_nets {
            let pins = rng.random_range(2..=4usize).min(n_cells);
            // Local bias: pick an anchor and draw the other pins from a
            // window around it.
            let anchor = rng.random_range(0..n_cells);
            let window = (n_cells / 10).max(8);
            let mut net: Vec<usize> = vec![anchor];
            while net.len() < pins {
                let lo = anchor.saturating_sub(window);
                let hi = (anchor + window).min(n_cells - 1);
                let candidate = rng.random_range(lo..=hi);
                if !net.contains(&candidate) {
                    net.push(candidate);
                }
            }
            nets.push(net);
        }
        Ok(Netlist {
            instances,
            nets,
            library,
        })
    }

    /// Number of cell instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True if the netlist has no instances.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Total transistors across all instances.
    #[must_use]
    pub fn transistors(&self) -> u64 {
        self.instances
            .iter()
            .map(|&i| self.library[i].transistors())
            .sum()
    }

    /// Total cell width (λ) if all instances were placed abutting in one
    /// row — the denominator of row-utilization computations.
    #[must_use]
    pub fn total_cell_width(&self) -> usize {
        self.instances.iter().map(|&i| self.library[i].width()).sum()
    }
}

/// A placement: instances assigned to row slots, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Instance order; `order[k]` is placed at slot `k` (row-major).
    order: Vec<usize>,
    /// Instances per row.
    per_row: usize,
    /// Die width, λ.
    die_width: usize,
    /// Row pitch (cell height + channel), λ.
    row_pitch: usize,
}

impl Placement {
    /// Center coordinates (λ) of the slot holding instance `inst`.
    fn position_of(&self, slot: usize) -> (f64, f64) {
        let row = slot / self.per_row;
        let col = slot % self.per_row;
        let x = (col as f64 + 0.5) * self.die_width as f64 / self.per_row as f64;
        let y = (row as f64 + 0.5) * self.row_pitch as f64;
        (x, y)
    }

    /// Total half-perimeter wirelength of `netlist` under this placement,
    /// in λ.
    #[must_use]
    pub fn total_hpwl(&self, netlist: &Netlist) -> f64 {
        // slot_of[inst] = slot index.
        let mut slot_of = vec![0usize; self.order.len()];
        for (slot, &inst) in self.order.iter().enumerate() {
            slot_of[inst] = slot;
        }
        let mut total = 0.0;
        for net in &netlist.nets {
            let mut min_x = f64::INFINITY;
            let mut max_x = f64::NEG_INFINITY;
            let mut min_y = f64::INFINITY;
            let mut max_y = f64::NEG_INFINITY;
            for &inst in net {
                let (x, y) = self.position_of(slot_of[inst]);
                min_x = min_x.min(x);
                max_x = max_x.max(x);
                min_y = min_y.min(y);
                max_y = max_y.max(y);
            }
            total += (max_x - min_x) + (max_y - min_y);
        }
        total
    }

    /// Number of rows in the placement.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.order.len().div_ceil(self.per_row)
    }

    /// Routing-channel demand: for each of the `rows − 1` channels
    /// between adjacent rows, the number of nets whose vertical span
    /// crosses it — the classical channel-density estimate a global
    /// router works from.
    #[must_use]
    pub fn channel_demand(&self, netlist: &Netlist) -> Vec<u64> {
        let rows = self.rows();
        if rows < 2 {
            return Vec::new();
        }
        let mut slot_of = vec![0usize; self.order.len()];
        for (slot, &inst) in self.order.iter().enumerate() {
            slot_of[inst] = slot;
        }
        let mut demand = vec![0u64; rows - 1];
        for net in &netlist.nets {
            let mut min_row = usize::MAX;
            let mut max_row = 0usize;
            for &inst in net {
                let row = slot_of[inst] / self.per_row;
                min_row = min_row.min(row);
                max_row = max_row.max(row);
            }
            for channel in demand.iter_mut().take(max_row).skip(min_row) {
                *channel += 1;
            }
        }
        demand
    }

    /// Routes every channel with the left-edge algorithm: each net claims
    /// its horizontal extent in every channel its vertical span crosses
    /// (and intra-row nets claim their adjacent channel). Returns the
    /// per-channel routing plus the post-route density summary.
    #[must_use]
    pub fn route(&self, netlist: &Netlist) -> RoutingResult {
        let rows = self.rows();
        let channels = rows.saturating_sub(1).max(1);
        let mut slot_of = vec![0usize; self.order.len()];
        for (slot, &inst) in self.order.iter().enumerate() {
            slot_of[inst] = slot;
        }
        let mut per_channel: Vec<Vec<Span>> = vec![Vec::new(); channels];
        for (net_id, net) in netlist.nets.iter().enumerate() {
            let mut min_row = usize::MAX;
            let mut max_row = 0usize;
            let mut min_x = f64::INFINITY;
            let mut max_x = f64::NEG_INFINITY;
            for &inst in net {
                let slot = slot_of[inst];
                let row = slot / self.per_row;
                let (x, _) = self.position_of(slot);
                min_row = min_row.min(row);
                max_row = max_row.max(row);
                min_x = min_x.min(x);
                max_x = max_x.max(x);
            }
            let x0 = min_x.floor() as i64;
            let x1 = (max_x.ceil() as i64).max(x0 + 1);
            let span = |ch: usize| Span::new(net_id, x0, x1).map(|s| (ch, s));
            if min_row == max_row {
                // Intra-row net: routed in the adjacent channel.
                let ch = min_row.min(channels - 1);
                if let Ok((ch, sp)) = span(ch) {
                    per_channel[ch].push(sp);
                }
            } else {
                for ch in min_row..max_row {
                    if let Ok((ch, sp)) = span(ch.min(channels - 1)) {
                        per_channel[ch].push(sp);
                    }
                }
            }
        }
        let routed: Vec<RoutedChannel> =
            per_channel.iter().map(|spans| route_channel(spans)).collect();
        RoutingResult {
            channels: routed,
            die_width: self.die_width,
            rows,
            cell_height: 40,
            track_pitch: 2,
            transistors: netlist.transistors(),
        }
    }

    /// Renders the placement as a raster [`Layout`] by stamping each cell
    /// into its row at uniform pitch.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the die is too narrow for the widest
    /// row (cannot happen for placements built by [`Placer`]).
    pub fn to_layout(&self, netlist: &Netlist) -> Result<Layout, LayoutError> {
        let rows = self.order.len().div_ceil(self.per_row);
        let mut grid = LambdaGrid::new(self.die_width, rows * self.row_pitch)?;
        for (slot, &inst) in self.order.iter().enumerate() {
            let cell = &netlist.library[netlist.instances[inst]];
            let row = slot / self.per_row;
            let col = slot % self.per_row;
            let slot_width = self.die_width / self.per_row;
            let x = col * slot_width + (slot_width.saturating_sub(cell.width())) / 2;
            let y = row * self.row_pitch;
            grid.stamp(cell.grid(), x as i64, y as i64)?;
        }
        Layout::new(grid, netlist.transistors().max(1))
    }
}

/// Result of routing a placement: per-channel track assignments and the
/// post-route area accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingResult {
    /// One routed channel per row gap.
    pub channels: Vec<RoutedChannel>,
    /// Die width, λ.
    pub die_width: usize,
    /// Cell rows.
    pub rows: usize,
    /// Cell height, λ.
    pub cell_height: usize,
    /// Vertical pitch per routing track, λ.
    pub track_pitch: usize,
    /// Transistors in the routed design.
    pub transistors: u64,
}

impl RoutingResult {
    /// Total routing tracks across all channels.
    #[must_use]
    pub fn total_tracks(&self) -> usize {
        self.channels.iter().map(RoutedChannel::track_count).sum()
    }

    /// The die height after sizing every channel to its routed track
    /// count.
    #[must_use]
    pub fn routed_height(&self) -> usize {
        self.rows * self.cell_height + self.total_tracks() * self.track_pitch
    }

    /// The post-route decompression index: total die area (cells plus
    /// actually-needed routing) per transistor — the achieved `s_d` the
    /// paper's Table A1 reports, rather than the cell-limited bound.
    #[must_use]
    pub fn routed_sd(&self) -> f64 {
        (self.die_width * self.routed_height()) as f64 / self.transistors.max(1) as f64
    }
}

/// The annealing placer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placer {
    /// Die width in λ (wider = sparser = larger achieved `s_d`).
    pub die_width: usize,
    /// Row pitch (cell height 40 + routing channel), λ.
    pub row_pitch: usize,
    /// Annealing moves to attempt.
    pub moves: usize,
    /// Initial temperature as a fraction of the initial wirelength.
    pub initial_temperature: f64,
    /// RNG seed.
    pub seed: u64,
    /// Instances per row; `None` packs as many widest-cell slots as fit.
    /// Fixing it while widening the die spreads cells out — the explicit
    /// density knob.
    pub per_row: Option<usize>,
}

impl Placer {
    /// A default configuration for a die of the given width.
    #[must_use]
    pub fn with_die_width(die_width: usize) -> Self {
        Placer {
            die_width,
            row_pitch: 52,
            moves: 20_000,
            initial_temperature: 0.01,
            seed: 1,
            per_row: None,
        }
    }

    /// Places `netlist`: row-major initial order, then simulated-annealing
    /// pairwise swaps minimizing total HPWL with geometric cooling.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] if the die is narrower
    /// than the widest library cell or the netlist is empty.
    pub fn place(&self, netlist: &Netlist) -> Result<Placement, LayoutError> {
        if netlist.is_empty() {
            return Err(LayoutError::InvalidParameter {
                name: "netlist",
                reason: "cannot place an empty netlist",
            });
        }
        let widest = netlist
            .instances
            .iter()
            .map(|&i| netlist.library[i].width())
            .max()
            .unwrap_or(0);
        if self.die_width < widest {
            return Err(LayoutError::InvalidParameter {
                name: "die_width",
                reason: "die narrower than the widest cell",
            });
        }
        // Uniform slot width sized to the widest cell; per_row from that
        // unless explicitly pinned.
        let per_row = self.per_row.unwrap_or((self.die_width / widest).max(1)).max(1);
        if self.die_width / per_row < widest {
            return Err(LayoutError::InvalidParameter {
                name: "per_row",
                reason: "slot width narrower than the widest cell",
            });
        }
        let mut placement = Placement {
            order: (0..netlist.len()).collect(),
            per_row,
            die_width: self.die_width,
            row_pitch: self.row_pitch,
        };
        let mut rng = Rng64::seed_from_u64(self.seed);
        let mut cost = placement.total_hpwl(netlist);
        let mut temperature = cost * self.initial_temperature;
        let cooling = 0.999_7f64;
        let n = placement.order.len();
        for _ in 0..self.moves {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if a == b {
                continue;
            }
            placement.order.swap(a, b);
            let new_cost = placement.total_hpwl(netlist);
            let delta = new_cost - cost;
            let accept = delta <= 0.0
                || (temperature > 0.0
                    && rng.random_range(0.0..1.0) < (-delta / temperature).exp());
            if accept {
                cost = new_cost;
            } else {
                placement.order.swap(a, b); // revert
            }
            temperature *= cooling;
        }
        Ok(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn netlist() -> Netlist {
        Netlist::random(120, 200, 7).unwrap()
    }

    #[test]
    fn random_netlist_has_requested_shape() {
        let n = netlist();
        assert_eq!(n.len(), 120);
        assert!(n.transistors() > 120); // every cell has ≥ 2 transistors
        assert!(n.total_cell_width() > 120 * 8);
        assert!(Netlist::random(1, 10, 0).is_err());
        assert!(Netlist::random(10, 0, 0).is_err());
    }

    #[test]
    fn annealing_beats_the_initial_order() {
        let n = netlist();
        let placer = Placer::with_die_width(600);
        let placed = placer.place(&n).unwrap();
        // Initial (identity) order cost:
        let initial = Placement {
            order: (0..n.len()).collect(),
            per_row: placed.per_row,
            die_width: placed.die_width,
            row_pitch: placed.row_pitch,
        };
        let before = initial.total_hpwl(&n);
        let after = placed.total_hpwl(&n);
        assert!(
            after < before * 0.95,
            "annealing should cut HPWL: {before} -> {after}"
        );
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let n = netlist();
        let placer = Placer::with_die_width(600);
        let a = placer.place(&n).unwrap();
        let b = placer.place(&n).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wider_die_at_fixed_columns_is_sparser_but_longer_wired() {
        let n = netlist();
        let narrow = Placer::with_die_width(400).place(&n).unwrap();
        let wide = Placer {
            die_width: 1200,
            per_row: Some(5),
            ..Placer::with_die_width(1200)
        }
        .place(&n)
        .unwrap();
        let sd_narrow = narrow.to_layout(&n).unwrap().measured_sd().squares();
        let sd_wide = wide.to_layout(&n).unwrap().measured_sd().squares();
        assert!(
            sd_wide > sd_narrow * 1.5,
            "wide {sd_wide} vs narrow {sd_narrow}"
        );
        // And the sparse placement pays in wirelength — the placer's side
        // of the paper's density/effort tradeoff.
        assert!(wide.total_hpwl(&n) > narrow.total_hpwl(&n));
    }

    #[test]
    fn routing_is_overlap_free_and_density_bounded() {
        let n = netlist();
        let placed = Placer::with_die_width(600).place(&n).unwrap();
        let routed = placed.route(&n);
        assert_eq!(routed.channels.len(), placed.rows() - 1);
        for (ch, routed_channel) in routed.channels.iter().enumerate() {
            assert!(routed_channel.is_overlap_free(), "channel {ch}");
        }
        assert!(routed.total_tracks() > 0);
        assert!(routed.routed_height() > placed.rows() * 40);
    }

    #[test]
    fn annealing_cuts_routed_tracks_versus_a_scramble() {
        let n = netlist();
        let placed = Placer::with_die_width(600).place(&n).unwrap();
        let mut scrambled = placed.clone();
        let mut rng = Rng64::seed_from_u64(99);
        for i in (1..scrambled.order.len()).rev() {
            let j = rng.random_range(0..=i);
            scrambled.order.swap(i, j);
        }
        assert!(
            placed.route(&n).total_tracks() < scrambled.route(&n).total_tracks(),
            "annealed routing should need fewer tracks"
        );
    }

    #[test]
    fn routed_sd_exceeds_the_cell_limited_bound() {
        // Real routing area makes the achieved density sparser than the
        // cells alone would suggest — the Table-A1 reality.
        let n = netlist();
        let placed = Placer::with_die_width(600).place(&n).unwrap();
        let routed = placed.route(&n);
        let cell_only_sd =
            (placed.die_width * placed.rows() * 40) as f64 / n.transistors() as f64;
        assert!(routed.routed_sd() > cell_only_sd);
    }

    #[test]
    fn per_row_override_is_validated() {
        let n = netlist();
        let bad = Placer {
            per_row: Some(50),
            ..Placer::with_die_width(400)
        };
        assert!(bad.place(&n).is_err());
    }

    #[test]
    fn layout_render_preserves_the_census() {
        let n = netlist();
        let placed = Placer::with_die_width(600).place(&n).unwrap();
        let layout = placed.to_layout(&n).unwrap();
        assert_eq!(layout.transistors(), n.transistors());
        assert!(layout.grid().occupancy() > 0.01);
    }

    #[test]
    fn annealing_beats_a_scrambled_placement_on_congestion() {
        // Versus a random permutation (no locality at all), the annealed
        // placement has fewer channel crossings. (The *identity* order is
        // near-optimal for crossings by construction — nets are id-local —
        // and HPWL annealing legitimately trades some vertical span for
        // horizontal span, a real aspect-ratio effect.)
        let n = netlist();
        let placer = Placer::with_die_width(600);
        let placed = placer.place(&n).unwrap();
        let mut scrambled = Placement {
            order: (0..n.len()).collect(),
            per_row: placed.per_row,
            die_width: placed.die_width,
            row_pitch: placed.row_pitch,
        };
        // Deterministic scramble.
        let mut rng = Rng64::seed_from_u64(99);
        for i in (1..scrambled.order.len()).rev() {
            let j = rng.random_range(0..=i);
            scrambled.order.swap(i, j);
        }
        let scrambled_crossings: u64 = scrambled.channel_demand(&n).iter().sum();
        let annealed_crossings: u64 = placed.channel_demand(&n).iter().sum();
        assert!(
            annealed_crossings < scrambled_crossings,
            "annealed {annealed_crossings} vs scrambled {scrambled_crossings}"
        );
        assert!(placed.total_hpwl(&n) < scrambled.total_hpwl(&n));
    }

    #[test]
    fn channel_demand_shape_matches_rows() {
        let n = netlist();
        let placed = Placer::with_die_width(600).place(&n).unwrap();
        let demand = placed.channel_demand(&n);
        assert_eq!(demand.len(), placed.rows() - 1);
        // Every net crossing is counted somewhere.
        assert!(demand.iter().sum::<u64>() > 0);
    }

    #[test]
    fn die_narrower_than_widest_cell_is_rejected() {
        let n = netlist();
        assert!(Placer::with_die_width(10).place(&n).is_err());
    }
}
