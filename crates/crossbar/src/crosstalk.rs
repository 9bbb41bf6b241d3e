//! The crosstalk hub (Eq. 5 of the paper).
//!
//! The hub owns the thermal-coupling state of the array: for every cell it
//! tracks the additional temperature contributed by all other cells,
//!
//! ```text
//!   ΔT_in(i,j) = Σ_{(k,l) ≠ (i,j)} α(i−k, j−l) · (T_out(k,l) − T₀)
//! ```
//!
//! driven through a first-order lag with time constant `τ_th`, so that the
//! gradual temperature build-up of Fig. 1 (Phase 2) is reproduced. Setting
//! `τ_th = 0` recovers the static relation. The α values come from the
//! finite-volume extraction of `rram-fem` and are looked up by cell offset,
//! which assumes translational invariance of the coupling away from the array
//! edges.
//!
//! The paper's Eq. 5 sums absolute temperatures; this implementation sums
//! temperature *rises* above ambient, which is the dimensionally consistent
//! reading of the same coefficients (an unpowered array then contributes no
//! crosstalk).
//!
//! Zero coupling means off: a hub whose α is zero off the selected cell
//! (`CrosstalkHub::two_ring(rows, cols, 0.0, tau)`) delivers no ΔT to any
//! cell, which is how the hub-off ablation runs.
//!
//! Crosstalk is local, so [`CrosstalkHub::update_spans`] updates only the
//! cells near the ones that carry heat: given, per row, a column span
//! outside which every cell holds ΔT `+0.0` and exports no rise, it visits
//! those spans dilated by the coupling support and reports the dilated
//! spans back. [`CrosstalkHub::update_batched`] is the case where every
//! span is the whole row.
//!
//! The span update is a stencil over a *rise plane*: the clamped
//! self-heating rise of every cell, row-major, with zero columns padded on
//! both sides by the support's column reach and on the right by one
//! block less a cell. The plane holds `+0.0` everywhere except inside each
//! row's nonzero span; each update clears the previous span before writing
//! the new rises, so the invariant holds between updates, after
//! [`CrosstalkHub::reset`] and in a clone. Each destination row is then
//! computed in blocks of eight cells: the block's targets accumulate in
//! registers over every coupling tap, in descending-offset order, reading
//! the padded plane without clipping. A row offset's taps run over every
//! column offset between its smallest and largest, with a zero
//! coefficient where the support has a hole.

use serde::{Deserialize, Serialize};

use rram_fem::AlphaMatrix;
use rram_units::{Kelvin, Seconds};

/// The thermal crosstalk hub of one crossbar array.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrosstalkHub {
    rows: usize,
    cols: usize,
    alpha: AlphaMatrix,
    /// Thermal time constant of the coupling, s.
    tau: f64,
    /// Current ΔT state per cell, K.
    state: Vec<f64>,
    /// Nonzero coupling offsets `(Δrow, Δcol, α)` excluding the self offset,
    /// precomputed from the α matrix. Sorted *descending* by offset:
    /// accumulating the taps in this order adds each destination's
    /// contributions in ascending-source order, i.e. in the exact order a
    /// source-major scatter (or the gather loop, per destination) adds
    /// them.
    support: Vec<(isize, isize, f64)>,
    /// The support's row offsets, descending (see [`TapRow`]).
    tap_rows: Vec<TapRow>,
    /// The stencil's coefficients: per row offset, α at every column
    /// offset from its largest down to its smallest — the support's order
    /// — and `0.0` where the support has a hole (the self offset among
    /// them).
    taps: Vec<f64>,
    /// Reused snapshot of the previous state for the gather, so updates
    /// never allocate.
    scratch: Vec<f64>,
    /// The rise plane of the span update: per row, `left` zero columns,
    /// the clamped self-heating rise of each cell (exactly `0.0` where a
    /// source contributes nothing), then zero columns up to `stride`. It
    /// is `+0.0` outside each row's `span`.
    plane: Vec<f64>,
    /// Zero columns left of each plane row: the support's largest Δcol.
    left: usize,
    /// Length of one plane row: `left`, the row's cells, then the
    /// support's largest −Δcol and one block less a cell.
    stride: usize,
    /// Per-row `[lo, hi)` nonzero column span of the plane. Crosstalk is
    /// local, so most rows are hot only near the biased lines; skipping the
    /// taps that read only outside it skips adds of `α · 0.0` terms, which
    /// are bit-neutral (the accumulator is never `-0.0` — see
    /// [`CrosstalkHub::update_spans`]). The previous update's spans tell
    /// the next one which plane entries to clear.
    span: Vec<(usize, usize)>,
    /// Reused per-row-offset scratch of the span update: where each row
    /// offset's taps read for the destination row at hand.
    sources: Vec<Source>,
    /// The last [`BLENDS`] `(dt bits, blend factor)` pairs, and the slot
    /// the next new one replaces; the bits of a NaN `dt`, which no update
    /// takes, mark a slot empty.
    blends: [(u64, f64); BLENDS],
    next_blend: usize,
    /// Every row's whole span: the span table of
    /// [`CrosstalkHub::update_batched`] (the dilation of a whole row is the
    /// whole row, so the update leaves it as it is).
    whole: Vec<(usize, usize)>,
}

/// Width of a destination block of the span update's stencil.
const BLOCK: usize = 8;

/// Blend factors the hub keeps: a hammer loop's sub-steps take four
/// lengths at most — a pulse's full sub-step and its remainder, an idle's
/// and its remainder.
const BLENDS: usize = 4;

/// The coupling taps of one row offset: their column offsets lie in
/// `[d_col_min, d_col_max]`, and `taps[first..]` holds one coefficient per
/// column offset of that range, descending. Dilating a source row's
/// nonzero span by the range gives the destination columns the taps reach.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct TapRow {
    d_row: isize,
    d_col_min: isize,
    d_col_max: isize,
    first: usize,
}

impl TapRow {
    /// Number of column offsets in the row offset's range.
    fn width(&self) -> usize {
        (self.d_col_max - self.d_col_min) as usize + 1
    }
}

/// Two hubs are equal when their coupling physics and state agree; the
/// derived tap tables, the blend factors and the `scratch`/`plane` buffers
/// are excluded.
impl PartialEq for CrosstalkHub {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.alpha == other.alpha
            && self.tau == other.tau
            && self.state == other.state
    }
}

impl CrosstalkHub {
    /// Creates a hub from an extracted α matrix.
    ///
    /// `rows`/`cols` are the dimensions of the *simulated* array, which may
    /// differ from the extraction array; coupling beyond the extracted
    /// offsets is treated as zero.
    pub fn new(rows: usize, cols: usize, alpha: AlphaMatrix, tau: Seconds) -> Self {
        assert!(rows > 0 && cols > 0, "array must be non-empty");
        assert!(
            tau.0 >= 0.0 && tau.0.is_finite(),
            "tau must be non-negative"
        );
        let (selected_row, selected_col) = alpha.selected();
        let mut support: Vec<(isize, isize, f64)> = alpha
            .iter()
            .filter(|&(r, c, a)| (r, c) != (selected_row, selected_col) && a != 0.0)
            .map(|(r, c, a)| {
                (
                    r as isize - selected_row as isize,
                    c as isize - selected_col as isize,
                    a,
                )
            })
            .collect();
        // Descending offset order — see the field's invariant note.
        support.sort_by_key(|&(d_row, d_col, _)| std::cmp::Reverse((d_row, d_col)));
        let mut tap_rows: Vec<TapRow> = Vec::new();
        for &(d_row, d_col, _) in &support {
            match tap_rows.last_mut() {
                Some(taps) if taps.d_row == d_row => {
                    taps.d_col_min = taps.d_col_min.min(d_col);
                    taps.d_col_max = taps.d_col_max.max(d_col);
                }
                _ => tap_rows.push(TapRow {
                    d_row,
                    d_col_min: d_col,
                    d_col_max: d_col,
                    first: 0,
                }),
            }
        }
        let mut taps = Vec::new();
        for row in &mut tap_rows {
            row.first = taps.len();
            taps.resize(row.first + row.width(), 0.0);
            for &(_, d_col, alpha) in support.iter().filter(|tap| tap.0 == row.d_row) {
                taps[row.first + (row.d_col_max - d_col) as usize] = alpha;
            }
        }
        let sources = vec![Source::COLD; tap_rows.len()];
        // The plane's zero columns: the support's reach to either side.
        let pad = |side: fn(&(isize, isize, f64)) -> isize| {
            support.iter().map(side).max().unwrap_or(0).max(0) as usize
        };
        let left = pad(|&(_, d_col, _)| d_col);
        let stride = left + cols + pad(|&(_, d_col, _)| -d_col) + BLOCK - 1;
        CrosstalkHub {
            rows,
            cols,
            alpha,
            tau: tau.0,
            state: vec![0.0; rows * cols],
            support,
            tap_rows,
            taps,
            scratch: vec![0.0; rows * cols],
            plane: vec![0.0; rows * stride],
            left,
            stride,
            span: vec![(0, 0); rows],
            sources,
            blends: [(f64::NAN.to_bits(), f64::NAN); BLENDS],
            next_blend: 0,
            whole: vec![(0, cols); rows],
        }
    }

    /// Creates a hub with a synthetic two-ring coupling profile — convenient
    /// for unit tests and quick experiments that do not want to run the field
    /// solver. `nearest` applies to the four in-line neighbours, `diagonal` to
    /// the four diagonal neighbours, and `second` to the cells two lines away.
    pub fn uniform(
        rows: usize,
        cols: usize,
        nearest: f64,
        diagonal: f64,
        second: f64,
        tau: Seconds,
    ) -> Self {
        let alpha = CrosstalkHub::uniform_alpha(nearest, diagonal, second);
        CrosstalkHub::new(rows, cols, alpha, tau)
    }

    /// The α map of [`CrosstalkHub::uniform`]: 5×5 with the selected cell
    /// at (2, 2), built without a hub around it.
    fn uniform_alpha(nearest: f64, diagonal: f64, second: f64) -> AlphaMatrix {
        let mut values = vec![0.0; 25];
        for r in 0..5usize {
            for c in 0..5usize {
                let dr = r.abs_diff(2);
                let dc = c.abs_diff(2);
                values[r * 5 + c] = match (dr, dc) {
                    (0, 0) => 1.0,
                    (0, 1) | (1, 0) => nearest,
                    (1, 1) => diagonal,
                    (0, 2) | (2, 0) => second,
                    _ => second * 0.5,
                };
            }
        }
        AlphaMatrix::from_values(5, 5, (2, 2), values)
    }

    /// The canonical synthetic two-ring profile used by scenarios and
    /// campaigns: in-line nearest neighbours couple at `nearest`, diagonal
    /// neighbours at half and the second ring at a quarter of it (close to
    /// the ratios the field solver extracts for 50 nm spacing). `nearest`
    /// 0 switches the coupling off.
    pub fn two_ring(rows: usize, cols: usize, nearest: f64, tau: Seconds) -> Self {
        CrosstalkHub::new(rows, cols, CrosstalkHub::two_ring_alpha(nearest), tau)
    }

    /// The α map of [`CrosstalkHub::two_ring`], built without a hub around
    /// it — what a campaign's uniform coupling resolves to, whatever the
    /// array size.
    pub fn two_ring_alpha(nearest: f64) -> AlphaMatrix {
        CrosstalkHub::uniform_alpha(nearest, 0.5 * nearest, 0.25 * nearest)
    }

    /// Thermal time constant.
    pub fn tau(&self) -> Seconds {
        Seconds(self.tau)
    }

    /// The α matrix used for the offset lookup.
    pub fn alpha(&self) -> &AlphaMatrix {
        &self.alpha
    }

    /// Number of rows of the simulated array.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the simulated array.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Current crosstalk temperature increase of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn delta(&self, row: usize, col: usize) -> Kelvin {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        Kelvin(self.state[row * self.cols + col])
    }

    /// All current ΔT values, row-major.
    pub fn deltas(&self) -> &[f64] {
        &self.state
    }

    /// Resets the thermal state to zero (array fully cooled down).
    pub fn reset(&mut self) {
        self.state.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Steady-state target ΔT for cell `(row, col)` given exported filament
    /// temperatures (row-major, length `rows·cols`) and the ambient
    /// temperature.
    fn target(
        &self,
        row: usize,
        col: usize,
        temperatures: &[f64],
        ambient: f64,
        previous_state: &[f64],
    ) -> f64 {
        let mut sum = 0.0;
        for src_row in 0..self.rows {
            for src_col in 0..self.cols {
                if src_row == row && src_col == col {
                    continue;
                }
                // Contribution of a source cell is its *self-heating* rise:
                // the exported filament temperature minus the crosstalk ΔT
                // this hub itself delivered to that cell. Using the total
                // temperature would double-count coupled heat and create a
                // positive feedback loop (the linear heat equation
                // superposes the responses to each cell's own dissipation).
                let src_idx = src_row * self.cols + src_col;
                let rise = temperatures[src_idx] - ambient - previous_state[src_idx];
                if rise <= 0.0 {
                    continue;
                }
                let alpha = self.alpha.alpha_by_offset(
                    row as isize - src_row as isize,
                    col as isize - src_col as isize,
                );
                sum += alpha * rise;
            }
        }
        sum
    }

    /// Advances the hub by `dt`, given the filament temperatures exported by
    /// every cell (row-major) and the ambient temperature.
    ///
    /// # Panics
    ///
    /// Panics if `temperatures.len() != rows·cols` or `dt` is negative.
    pub fn update(&mut self, temperatures: &[f64], ambient: Kelvin, dt: Seconds) {
        assert_eq!(
            temperatures.len(),
            self.rows * self.cols,
            "temperature vector length mismatch"
        );
        assert!(dt.0 >= 0.0, "dt must be non-negative");
        let blend = self.blend(dt);
        // Targets are computed from a snapshot of the state so the update is
        // independent of cell iteration order; the snapshot lives in the
        // reused scratch buffer, so no sub-step allocates.
        std::mem::swap(&mut self.state, &mut self.scratch);
        for row in 0..self.rows {
            for col in 0..self.cols {
                let idx = row * self.cols + col;
                let target = self.target(row, col, temperatures, ambient.0, &self.scratch);
                self.state[idx] = self.scratch[idx] + (target - self.scratch[idx]) * blend;
            }
        }
    }

    /// Exact first-order-lag blend factor for a piecewise-constant target,
    /// looked up by the bits of `dt` among the last [`BLENDS`] ones: an
    /// engine's sub-steps repeat a handful of lengths, and the exponential
    /// costs a sizeable share of a small array's span update.
    fn blend(&mut self, dt: Seconds) -> f64 {
        let key = dt.0.to_bits();
        if let Some(&(_, blend)) = self.blends.iter().find(|&&(bits, _)| bits == key) {
            return blend;
        }
        let blend = if self.tau == 0.0 {
            1.0
        } else {
            1.0 - (-dt.0 / self.tau).exp()
        };
        self.blends[self.next_blend] = (key, blend);
        self.next_blend = (self.next_blend + 1) % BLENDS;
        blend
    }

    /// Advances the hub by `dt` like [`CrosstalkHub::update`]:
    /// [`CrosstalkHub::update_spans`] with every row's span the whole row.
    ///
    /// # Panics
    ///
    /// Panics if `temperatures.len() != rows·cols` or `dt` is negative.
    pub fn update_batched(&mut self, temperatures: &[f64], ambient: Kelvin, dt: Seconds) {
        let mut whole = std::mem::take(&mut self.whole);
        self.update_spans(temperatures, ambient, dt, &mut whole);
        self.whole = whole;
    }

    /// Advances the hub by `dt` like [`CrosstalkHub::update`], visiting
    /// only the cells near `spans`, and replaces each row's span with the
    /// columns the update visited.
    ///
    /// `spans[row]` is a `[lo, hi)` column span (`lo == hi` is empty).
    /// The caller promises that every cell outside the spans holds ΔT
    /// `+0.0` and exports no rise (its temperature minus `ambient` is not
    /// positive); such a cell contributes no term to any target, and its
    /// own target is `+0.0` unless a source within the coupling support has
    /// a rise. So the update visits each row's own span together with the
    /// hot columns of the rows around it dilated by the support, and leaves
    /// every other cell at `+0.0`, which is exactly where the whole-array
    /// update puts it. The state is updated in place, never swapped with a
    /// stale buffer, so a cell the update skips keeps its own value.
    ///
    /// The update first writes the clamped rises over the spans into the
    /// rise plane (see the module docs), after clearing each row's previous
    /// nonzero span, so the plane is `+0.0` outside the new nonzero spans.
    /// It then computes each destination row's targets as a stencil over
    /// the plane. The cells no tap reaches from a hot source have target
    /// `+0.0`; the others are taken a block of eight at a time: the block's
    /// accumulators take `α · plane[src]` for every tap, in descending
    /// offset order, then blend into the state. The plane's zero padding
    /// stands in for the sources beyond the array edges, so no tap is
    /// clipped, and a row offset whose source row holds no rise within
    /// reach of the block adds only zeros and is skipped. For the compact
    /// synthetic/extracted α profiles a hammer campaign uses (a handful of
    /// coupled rings), this costs `O(rows·cols · support)` per sub-step
    /// instead of the gather's `O((rows·cols)²)`. When the support is as
    /// dense as the array itself the method falls back to the gather loop
    /// over every cell and reports every span as the whole row.
    ///
    /// For finite temperatures and coefficients the result is
    /// **bit-identical** to [`CrosstalkHub::update`] (tests pin this). The
    /// descending offset order of the taps makes every destination
    /// accumulate its contributions in ascending-source order, the order
    /// the gather adds them in. Each multiply and add is a separate
    /// rounding, never a fused multiply-add. The terms only one side adds —
    /// the gather's sources outside the support; the stencil's cold and
    /// padded sources, `α · 0.0`, and its holes, `0.0 · rise` — are all
    /// `±0.0` (the plane stores an exact `0.0` where a source contributes
    /// nothing, and a finite rise is never negative), and they leave an
    /// accumulator that is never `-0.0` unchanged: it starts at `+0.0`,
    /// and partial sums of finite terms that cancel round to `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `temperatures.len() != rows·cols`, `spans.len() != rows`,
    /// a span is not within its row, or `dt` is negative.
    pub fn update_spans(
        &mut self,
        temperatures: &[f64],
        ambient: Kelvin,
        dt: Seconds,
        spans: &mut [(usize, usize)],
    ) {
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(
            temperatures.len(),
            rows * cols,
            "temperature vector length mismatch"
        );
        assert_eq!(spans.len(), rows, "span table length mismatch");
        assert!(dt.0 >= 0.0, "dt must be non-negative");
        if self.support.len() >= rows * cols {
            // Dense coupling (e.g. a full FEM extraction): the stencil would
            // cost more than gathering.
            self.update(temperatures, ambient, dt);
            spans.fill((0, cols));
            return;
        }
        let blend = self.blend(dt);
        // The rise plane over the spans, and each row's nonzero span of it.
        // `r > 0.0` is false for NaN and `-0.0` too, so a source that
        // contributes nothing stores an exact `0.0`. Outside the spans the
        // rises are `0.0` by the caller's promise, so the nonzero spans are
        // the whole-array ones.
        for (row, &(lo, hi)) in spans.iter().enumerate() {
            assert!(lo <= hi && hi <= cols, "span outside its row");
            let plane = &mut self.plane[row * self.stride + self.left..][..cols];
            let (old_lo, old_hi) = self.span[row];
            plane[old_lo..old_hi].fill(0.0);
            let cells = row * cols + lo..row * cols + hi;
            let sources = temperatures[cells.clone()].iter().zip(&self.state[cells]);
            for (slot, (&t, &p)) in plane[lo..hi].iter_mut().zip(sources) {
                let r = t - ambient.0 - p;
                *slot = if r > 0.0 { r } else { 0.0 };
            }
            self.span[row] = match nonzero_span(&plane[lo..hi]) {
                (first, last) if first == last => (0, 0),
                (first, last) => (lo + first, lo + last),
            };
        }
        // Each destination row: the columns its taps carry a hot source's
        // rise to, and its targets — its own span (whose cells may hold
        // ΔT) and those columns. The cells no tap reaches blend towards
        // `+0.0`, the reached ones a block at a time.
        let mut sources = std::mem::take(&mut self.sources);
        let icols = cols as isize;
        for (dst_row, span) in spans.iter_mut().enumerate() {
            let mut reach = (0, 0);
            for (taps, source) in self.tap_rows.iter().zip(&mut sources) {
                *source = self.source(dst_row, taps);
                if source.lo < source.hi {
                    let lo = source.lo.clamp(0, icols) as usize;
                    let hi = source.hi.clamp(0, icols) as usize;
                    reach = hull(reach, (lo, hi));
                }
            }
            *span = hull(*span, reach);
            let (t_lo, t_hi) = *span;
            let (r_lo, r_hi) = if reach.0 == reach.1 {
                (t_lo, t_lo)
            } else {
                reach
            };
            let (before, after) = self.state[dst_row * cols..][..cols].split_at_mut(r_hi);
            for cells in [&mut before[t_lo..r_lo], &mut after[..t_hi - r_hi]] {
                for s in cells {
                    *s = *s + (0.0 - *s) * blend;
                }
            }
            for c0 in (r_lo..r_hi).step_by(BLOCK) {
                let targets = self.block_targets(&sources, c0);
                let width = BLOCK.min(r_hi - c0);
                let state = &mut self.state[dst_row * cols + c0..][..width];
                for (s, &a) in state.iter_mut().zip(&targets) {
                    *s = *s + (a - *s) * blend;
                }
            }
        }
        self.sources = sources;
    }

    /// Where the taps of `taps` read for destination row `dst_row` (see
    /// [`Source`]).
    #[inline]
    fn source(&self, dst_row: usize, taps: &TapRow) -> Source {
        let src_row = dst_row as isize - taps.d_row;
        let Some(&(lo, hi)) = usize::try_from(src_row).ok().and_then(|r| self.span.get(r)) else {
            return Source::COLD;
        };
        if lo == hi {
            return Source::COLD;
        }
        Source {
            lo: lo as isize + taps.d_col_min,
            hi: hi as isize + taps.d_col_max,
            start: src_row * self.stride as isize + self.left as isize - taps.d_col_max,
        }
    }

    /// The targets of the [`BLOCK`] cells of a destination row from column
    /// `c0` on, given its row offsets' `sources`: `Σ α · plane[src]` over
    /// the taps in descending-offset order, skipping the row offsets whose
    /// source row holds no rise within reach of the block (their taps read
    /// only zeros). Columns past the row's end read the plane's padding;
    /// the caller drops them.
    #[inline]
    fn block_targets(&self, sources: &[Source], c0: usize) -> [f64; BLOCK] {
        let mut acc = [0.0; BLOCK];
        let (lo, hi) = (c0 as isize, (c0 + BLOCK) as isize);
        for (taps, source) in self.tap_rows.iter().zip(sources) {
            if hi <= source.lo || lo >= source.hi {
                continue;
            }
            // The k-th tap (Δcol `d_col_max − k`) reads the block at `k`
            // of this window.
            let start = (source.start + lo) as usize;
            let window = &self.plane[start..start + taps.width() + BLOCK - 1];
            let alphas = &self.taps[taps.first..taps.first + taps.width()];
            for (src, &alpha) in window.windows(BLOCK).zip(alphas) {
                for (a, &r) in acc.iter_mut().zip(src) {
                    *a += alpha * r;
                }
            }
        }
        acc
    }
}

/// Where one row offset's taps read for the current destination row.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Source {
    /// The destination columns `[lo, hi)` the taps carry the source row's
    /// nonzero span to; empty when the source row is outside the array or
    /// holds no rise.
    lo: isize,
    hi: isize,
    /// The plane index the taps' window starts at for destination column
    /// 0: the source row's column `−d_col_max`.
    start: isize,
}

impl Source {
    /// A source row that is outside the array or holds no rise.
    const COLD: Source = Source {
        lo: isize::MAX,
        hi: isize::MIN,
        start: 0,
    };
}

/// The `[lo, hi)` span of the entries of `values` that are not zero
/// (`lo == hi` when there are none).
pub(crate) fn nonzero_span(values: &[f64]) -> (usize, usize) {
    match values.iter().position(|&v| v != 0.0) {
        None => (0, 0),
        Some(lo) => (lo, values.iter().rposition(|&v| v != 0.0).unwrap_or(lo) + 1),
    }
}

/// The smallest span holding both `[lo, hi)` spans; an empty span
/// (`lo == hi`) holds nothing.
pub(crate) fn hull(a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
    if a.0 == a.1 {
        b
    } else if b.0 == b.1 {
        a
    } else {
        (a.0.min(b.0), a.1.max(b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_center(rows: usize, cols: usize, hot: f64) -> Vec<f64> {
        let mut t = vec![300.0; rows * cols];
        t[(rows / 2) * cols + cols / 2] = hot;
        t
    }

    #[test]
    fn static_hub_reaches_target_immediately() {
        let mut hub = CrosstalkHub::uniform(5, 5, 0.1, 0.05, 0.02, Seconds(0.0));
        hub.update(&hot_center(5, 5, 900.0), Kelvin(300.0), Seconds(1e-9));
        // Nearest neighbour of the hot centre: α = 0.1, rise = 600 K → 60 K.
        assert!((hub.delta(2, 1).0 - 60.0).abs() < 1e-9);
        assert!((hub.delta(1, 1).0 - 30.0).abs() < 1e-9);
        assert!((hub.delta(2, 0).0 - 12.0).abs() < 1e-9);
    }

    #[test]
    fn lagged_hub_converges_exponentially() {
        let mut hub = CrosstalkHub::uniform(3, 3, 0.1, 0.05, 0.02, Seconds(100e-9));
        let temps = hot_center(3, 3, 900.0);
        hub.update(&temps, Kelvin(300.0), Seconds(100e-9));
        let after_one_tau = hub.delta(1, 0).0;
        let target = 60.0;
        assert!((after_one_tau - target * (1.0 - (-1.0f64).exp())).abs() < 1e-6);
        // Keep updating; it should approach the target.
        for _ in 0..50 {
            hub.update(&temps, Kelvin(300.0), Seconds(100e-9));
        }
        assert!((hub.delta(1, 0).0 - target).abs() < 1e-3);
    }

    #[test]
    fn cooling_decays_back_to_zero() {
        let mut hub = CrosstalkHub::uniform(3, 3, 0.1, 0.05, 0.02, Seconds(50e-9));
        let temps = hot_center(3, 3, 900.0);
        hub.update(&temps, Kelvin(300.0), Seconds(1e-6));
        assert!(hub.delta(1, 0).0 > 50.0);
        let ambient_only = vec![300.0; 9];
        hub.update(&ambient_only, Kelvin(300.0), Seconds(1e-6));
        assert!(hub.delta(1, 0).0 < 1.0);
    }

    #[test]
    fn colder_than_ambient_sources_are_ignored() {
        let mut hub = CrosstalkHub::uniform(3, 3, 0.1, 0.05, 0.02, Seconds(0.0));
        let mut temps = vec![300.0; 9];
        temps[0] = 250.0;
        hub.update(&temps, Kelvin(300.0), Seconds(1e-9));
        assert_eq!(hub.delta(1, 1).0, 0.0);
    }

    #[test]
    fn reset_clears_the_state() {
        let mut hub = CrosstalkHub::uniform(3, 3, 0.1, 0.05, 0.02, Seconds(0.0));
        hub.update(&hot_center(3, 3, 900.0), Kelvin(300.0), Seconds(1e-9));
        hub.reset();
        assert!(hub.deltas().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn superposition_of_two_aggressors() {
        let mut hub = CrosstalkHub::uniform(5, 5, 0.1, 0.05, 0.02, Seconds(0.0));
        let mut temps = vec![300.0; 25];
        // Two aggressors flanking the victim at (2,2).
        temps[2 * 5 + 1] = 900.0;
        temps[2 * 5 + 3] = 900.0;
        hub.update(&temps, Kelvin(300.0), Seconds(1e-9));
        // Victim receives 0.1·600 from each side.
        assert!((hub.delta(2, 2).0 - 120.0).abs() < 1e-9);
    }

    /// A synthetic α map shaped like a field-solve extraction: every entry
    /// nonzero and decaying with distance from the centre.
    fn fem_shaped_alpha(edge: usize) -> AlphaMatrix {
        let centre = edge / 2;
        let values = (0..edge * edge)
            .map(|i| {
                let d2 = (i / edge).abs_diff(centre).pow(2) + (i % edge).abs_diff(centre).pow(2);
                if d2 == 0 {
                    1.0
                } else {
                    0.17 / (d2 as f64).powf(1.3)
                }
            })
            .collect();
        AlphaMatrix::from_values(edge, edge, (centre, centre), values)
    }

    #[test]
    fn batched_update_matches_gather_update() {
        // An uneven field with sub-ambient cells on the two-ring profile.
        let uneven: Vec<f64> = (0..42).map(|i| 280.0 + (i as f64 * 37.0) % 650.0).collect();
        // Whole rows at ambient (empty spans) around hot rows holding
        // sub-ambient sources; after the first step the ambient sources'
        // rises turn negative from the crosstalk they imported.
        let mut cold_rows = vec![300.0; 48];
        for col in 0..6 {
            cold_rows[12 + col] = if col % 2 == 0 { 850.0 } else { 260.0 };
            cold_rows[18 + col] = 300.0 + 90.0 * col as f64;
        }
        cold_rows[41] = 1200.0;
        cold_rows[36] = 150.0;
        let field = |cells: usize| -> Vec<f64> {
            (0..cells)
                .map(|i| 300.0 + (i as f64 * 53.0) % 700.0)
                .collect()
        };
        let cases = [
            (
                CrosstalkHub::uniform(6, 7, 0.1, 0.05, 0.02, Seconds(40e-9)),
                uneven,
            ),
            (
                CrosstalkHub::uniform(8, 6, 0.13, 0.06, 0.03, Seconds(25e-9)),
                cold_rows,
            ),
            // FEM-shaped α on arrays the size of the extraction: the support
            // is cells − 1, one short of the gather fallback, so the stencil
            // runs with every offset coupled.
            (
                CrosstalkHub::new(5, 5, fem_shaped_alpha(5), Seconds(30e-9)),
                field(25),
            ),
            (
                CrosstalkHub::new(7, 7, fem_shaped_alpha(7), Seconds(30e-9)),
                field(49),
            ),
        ];
        for (case, (hub, temps)) in cases.into_iter().enumerate() {
            assert!(hub.support.len() < hub.rows * hub.cols, "case {case}");
            let (mut gather, mut scatter) = (hub.clone(), hub);
            for step in 0..6 {
                gather.update(&temps, Kelvin(300.0), Seconds(20e-9));
                scatter.update_batched(&temps, Kelvin(300.0), Seconds(20e-9));
                for (idx, (a, b)) in gather.deltas().iter().zip(scatter.deltas()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "case {case} step {step} cell {idx}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn stencil_update_is_bit_identical_to_a_source_major_scatter() {
        // The stencil must reproduce the straightforward source-major
        // scatter (each source pushed over the support, sources ascending)
        // bit for bit — this is what keeps batched campaign results stable
        // across the loop restructure. Exercised on an array larger than
        // the support and on one narrower than the coupling reach (every
        // tap reads the plane's padding).
        for (rows, cols) in [(6, 7), (2, 2)] {
            let mut hub = CrosstalkHub::uniform(rows, cols, 0.1, 0.05, 0.02, Seconds(40e-9));
            let mut expected_state: Vec<f64> = hub.state.clone();
            let temps: Vec<f64> = (0..rows * cols)
                .map(|i| 280.0 + (i as f64 * 37.0) % 650.0)
                .collect();
            for _ in 0..5 {
                // Reference: the source-major scatter over the same support.
                let previous = expected_state.clone();
                let mut target = vec![0.0; rows * cols];
                for src_row in 0..rows {
                    for src_col in 0..cols {
                        let src_idx = src_row * cols + src_col;
                        let rise = temps[src_idx] - 300.0 - previous[src_idx];
                        if rise <= 0.0 {
                            continue;
                        }
                        for &(d_row, d_col, alpha) in &hub.support {
                            let row = src_row as isize + d_row;
                            let col = src_col as isize + d_col;
                            if row < 0 || col < 0 || row >= rows as isize || col >= cols as isize {
                                continue;
                            }
                            target[row as usize * cols + col as usize] += alpha * rise;
                        }
                    }
                }
                let blend = hub.blend(Seconds(20e-9));
                for idx in 0..rows * cols {
                    expected_state[idx] = previous[idx] + (target[idx] - previous[idx]) * blend;
                }

                hub.update_batched(&temps, Kelvin(300.0), Seconds(20e-9));
                for (idx, (a, b)) in hub.deltas().iter().zip(&expected_state).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "cell {idx}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn dense_support_falls_back_to_gather() {
        // A full-array α matrix (every offset nonzero) on a smaller simulated
        // array: the scatter support is denser than the array, so the batched
        // path must fall back to the exact gather loop.
        let alpha = AlphaMatrix::from_values(3, 3, (1, 1), vec![0.1; 9]);
        let mut hub = CrosstalkHub::new(2, 2, alpha.clone(), Seconds(0.0));
        let mut reference = CrosstalkHub::new(2, 2, alpha, Seconds(0.0));
        let temps = [900.0, 300.0, 300.0, 300.0];
        hub.update_batched(&temps, Kelvin(300.0), Seconds(1e-9));
        reference.update(&temps, Kelvin(300.0), Seconds(1e-9));
        assert_eq!(hub.deltas(), reference.deltas());
    }

    /// splitmix64: the span test's deterministic source of cases.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A 4×6 α map with its selected cell off-centre at (1, 2), so the
    /// support reaches one row up, two down, two columns left and three
    /// right, with a few holes.
    fn asymmetric_alpha(state: &mut u64) -> AlphaMatrix {
        let values = (0..24)
            .map(|i| match (i, next(state) % 5) {
                (8, _) => 1.0,
                (_, 0) => 0.0,
                (_, k) => 0.02 * k as f64,
            })
            .collect();
        AlphaMatrix::from_values(4, 6, (1, 2), values)
    }

    /// The tightest spans the span update's contract allows for `hot`
    /// (per row, the `[lo, hi)` columns heated this step): each row's cells
    /// that hold ΔT, widened by its hot ones.
    fn tight_spans(hub: &CrosstalkHub, hot: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let cols = hub.cols;
        hub.deltas()
            .chunks(cols)
            .map(nonzero_span)
            .zip(hot)
            .map(|(held, &heated)| hull(held, heated))
            .collect()
    }

    /// Runs one step on both hubs — the gather on every cell, the span
    /// update on `spans` — and asserts they agree bit for bit and that the
    /// span update leaves `+0.0` outside the spans it reports.
    fn step_both(
        gather: &mut CrosstalkHub,
        scatter: &mut CrosstalkHub,
        temps: &[f64],
        mut spans: Vec<(usize, usize)>,
        dt: Seconds,
        context: &str,
    ) {
        let cols = gather.cols;
        gather.update(temps, Kelvin(300.0), dt);
        scatter.update_spans(temps, Kelvin(300.0), dt, &mut spans);
        for (idx, (a, b)) in gather.deltas().iter().zip(scatter.deltas()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{context} cell {idx}: {a} vs {b}");
            let (lo, hi) = spans[idx / cols];
            assert!(
                (lo..hi).contains(&(idx % cols)) || b.to_bits() == 0,
                "{context}: cell {idx} holds {b} outside its span"
            );
        }
    }

    /// One random step: heats random cells inside random column spans,
    /// leaves every other cell at ambient, and feeds the span update the
    /// tightest spans (see [`step_both`]).
    fn random_step(
        gather: &mut CrosstalkHub,
        scatter: &mut CrosstalkHub,
        state: &mut u64,
        context: &str,
    ) {
        let (rows, cols) = (gather.rows, gather.cols);
        let mut temps = vec![300.0; rows * cols];
        let mut hot = vec![(0, 0); rows];
        for (row, heated) in hot.iter_mut().enumerate() {
            if next(state).is_multiple_of(3) {
                continue;
            }
            let lo = (next(state) as usize) % cols;
            let hi = lo + 1 + (next(state) as usize) % (cols - lo);
            for temp in &mut temps[row * cols + lo..row * cols + hi] {
                *temp = 250.0 + (next(state) % 700) as f64;
            }
            *heated = (lo, hi);
        }
        let spans = tight_spans(scatter, &hot);
        let dt = Seconds(1e-9 * (1 + next(state) % 40) as f64);
        step_both(gather, scatter, &temps, spans, dt, context);
    }

    #[test]
    fn span_update_matches_the_gather_update() {
        // Random arrays from 1×1 to 12×15 under the two-ring profile and an
        // asymmetric wider one, τ zero or not. Every step heats random
        // cells inside random column spans and leaves every other cell at
        // ambient. The span update is fed the tightest spans the contract
        // allows — each row's cells that hold ΔT, widened by its new hot
        // ones — so a cell whose ΔT fell to `+0.0` drops out of them while
        // its previous ΔT was not `+0.0`. It must match the gather bit for
        // bit and leave `+0.0` outside the spans it reports.
        let mut state = 0x5eed;
        for case in 0..80 {
            let rows = 1 + (next(&mut state) % 12) as usize;
            let cols = 1 + (next(&mut state) % 15) as usize;
            let tau = Seconds(if case % 3 == 0 { 0.0 } else { 30e-9 });
            let hub = if case % 2 == 0 {
                CrosstalkHub::two_ring(rows, cols, 0.13, tau)
            } else {
                CrosstalkHub::new(rows, cols, asymmetric_alpha(&mut state), tau)
            };
            let (mut gather, mut scatter) = (hub.clone(), hub);
            for step in 0..8 {
                let context = format!("case {case} ({rows}x{cols}) step {step}");
                random_step(&mut gather, &mut scatter, &mut state, &context);
            }
        }

        // A support whose column reach (four each way) is wider than the
        // array, with fewer entries than cells: the stencil runs, not the
        // gather fallback, and every tap reads the plane's padding.
        let wide = AlphaMatrix::from_values(
            1,
            9,
            (0, 4),
            vec![0.01, 0.02, 0.05, 0.12, 1.0, 0.11, 0.04, 0.03, 0.015],
        );
        for tau in [0.0, 30e-9] {
            let hub = CrosstalkHub::new(4, 3, wide.clone(), Seconds(tau));
            assert!(hub.support.len() < 4 * 3 && hub.left > 3);
            let (mut gather, mut scatter) = (hub.clone(), hub);
            for step in 0..12 {
                let context = format!("1x9 support on 4x3, tau {tau}, step {step}");
                random_step(&mut gather, &mut scatter, &mut state, &context);
            }
        }

        // Spans that move away: a lone hot cell holds no ΔT itself, so the
        // next step's tight span leaves its column out while the plane
        // still holds its rise from the step before. The update must clear
        // it before it reads the plane: row 1's hot cell moves from column
        // 0 to column 4, within one block of it, then the row cools.
        let hub = CrosstalkHub::two_ring(3, 12, 0.13, Seconds(30e-9));
        let (mut gather, mut scatter) = (hub.clone(), hub);
        let moves = [
            [(0, 0), (0, 1), (0, 0)],
            [(0, 0), (4, 5), (0, 0)],
            [(9, 10), (0, 0), (0, 0)],
            [(0, 0), (0, 0), (0, 0)],
            [(0, 0), (0, 0), (3, 4)],
        ];
        for (step, hot) in moves.iter().enumerate() {
            let mut temps = vec![300.0; 3 * 12];
            for (row, &(lo, hi)) in hot.iter().enumerate() {
                temps[row * 12 + lo..row * 12 + hi].fill(850.0);
            }
            let spans = tight_spans(&scatter, hot);
            if step == 1 {
                assert_eq!(spans[1], (1, 5), "column 0 left row 1's span");
            }
            let context = format!("moving spans, step {step}");
            step_both(
                &mut gather,
                &mut scatter,
                &temps,
                spans,
                Seconds(10e-9),
                &context,
            );
        }

        // Reset and clone between steps: a reset hub's plane still holds
        // the last rises, and a clone carries the plane over.
        for case in 0..12 {
            let (rows, cols) = (1 + case % 5, 2 + case * 3 % 11);
            let hub = if case % 2 == 0 {
                CrosstalkHub::two_ring(rows, cols, 0.13, Seconds(30e-9))
            } else {
                CrosstalkHub::new(rows, cols, asymmetric_alpha(&mut state), Seconds(0.0))
            };
            let (mut gather, mut scatter) = (hub.clone(), hub);
            for step in 0..10 {
                match step % 4 {
                    1 => {
                        gather.reset();
                        scatter.reset();
                    }
                    3 => scatter = scatter.clone(),
                    _ => {}
                }
                let context = format!("reset/clone case {case} ({rows}x{cols}) step {step}");
                random_step(&mut gather, &mut scatter, &mut state, &context);
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_temperature_length_panics() {
        let mut hub = CrosstalkHub::uniform(3, 3, 0.1, 0.05, 0.02, Seconds(0.0));
        hub.update(&[300.0; 4], Kelvin(300.0), Seconds(1e-9));
    }
}
