package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"sea/internal/equilibrate"
	"sea/internal/mat"
	"sea/internal/parallel"
	"sea/internal/trace"
)

// SolveDiagonal runs the splitting equilibration algorithm on a diagonal
// constrained matrix problem (paper Section 3.1): alternating parallel row
// and column exact-equilibration phases — dual block-coordinate ascent on
// ζ_l(λ,μ) — until the convergence criterion is met.
//
// Cancellation is observed between phases: when ctx is cancelled or its
// deadline passes, the solve returns within one outer iteration with the
// last consistent iterate and ctx.Err(). A nil ctx means context.Background.
//
// On iteration-limit exhaustion it returns the last iterate together with an
// error wrapping ErrNotConverged.
//
// With Options.Arena set, the working state (and the returned Solution's
// backing arrays) come from the arena and are reused across same-shape
// solves; see Arena for the aliasing and concurrency contract.
func SolveDiagonal(ctx context.Context, p *DiagonalProblem, opts *Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	if o.Objective != ObjectiveQuadratic {
		return nil, fmt.Errorf("core: SolveDiagonal minimizes the quadratic objective only; route Objective=%v through the facade's \"entropy\" solver", o.Objective)
	}
	if err := o.Arena.acquire(); err != nil {
		return nil, err
	}
	defer o.Arena.release()
	var ps *precondState
	if o.Precondition != PrecondNone {
		if ar := o.Arena; ar != nil {
			if ar.pre == nil {
				ar.pre = &precondState{}
			}
			ps = ar.pre
		} else {
			ps = &precondState{}
		}
		p = ps.apply(p, o)
	}
	st := newDiagState(ctx, p, o)
	defer st.close()
	err := st.run()
	sol := st.solution()
	if ps != nil {
		ps.unscale(sol)
	}
	return sol, err
}

// diagState carries the working arrays of one diagonal solve.
//
// The iterate is kept in two layouts: x row-major for the row phase and the
// convergence check, and the mirror xT column-major so the column phase
// reads and writes contiguous memory instead of stride-n gathers. The
// problem constants the column phase needs (priors, slopes, bounds) are
// transposed once up front for the same reason; a blocked transpose
// reconciles xT back into x after each column phase.
//
// A state can outlive one solve: with Options.Arena the whole struct is
// cached and re-adopted by the next same-shape solve, which resets the
// per-solve scalars and recomputes the data-dependent constants while
// keeping every buffer — and the kernel warm-start states — alive.
type diagState struct {
	ctx context.Context
	p   *DiagonalProblem
	o   *Options

	m, n  int    // cached problem shape (the arena reuse key, with nv)
	nv    int    // stored cells per per-cell buffer: m·n dense, nnz CSR
	arena *Arena // nil when not reusing

	// pat is the problem's CSR pattern (nil for dense storage). The column
	// mirror below is the CSC view of the same support, rebuilt whenever an
	// adopted state sees a different pattern: cscPtr[j]..cscPtr[j+1] are
	// column j's stored positions in the mirror arrays, cscRow their row
	// indices, and cscPos the permutation from mirror position back to CSR
	// position — the sparse replacement for the dense blocked transpose.
	pat    *Pattern
	cscPtr []int
	cscRow []int32
	cscPos []int32
	cscTmp []int // per-column cursor scratch for buildCSC

	x        []float64 // current matrix iterate in storage order (row-major / CSR)
	xT       []float64 // column-major mirror: dense n×m, or CSC order for CSR
	xPrev    []float64 // previous checked iterate (MaxAbsDelta only)
	lambda   []float64 // row multipliers λ_i
	mu       []float64 // column multipliers μ_j
	rowSum   []float64 // Σ_j x_ij as returned by the latest row phase
	colSum   []float64 // Σ_i x_ij as returned by the latest column phase
	checkBuf []float64 // per-row scratch for the parallel convergence check

	aRow       []float64 // slopes a_ij = 1/(2γ_ij), storage order
	aT         []float64 // aRow in column-mirror order
	x0T        []float64 // p.X0 in column-mirror order; refreshX0T re-syncs it when X0 mutates
	upperT     []float64 // p.Upper in column-mirror order, nil when unbounded
	lowerT     []float64 // p.Lower in column-mirror order, nil when absent
	supplyBuf  []float64 // supplies scratch for checkConvergence, hoisted off the hot loop
	checkTasks []int64   // shared parallel-check trace costs (row i's entry is its stored width)

	// rows and cols describe the two phases to the one phase body,
	// phaseChunk (see side). They are re-bound at the end of every
	// newDiagState, since an adopted state may carry a different problem.
	rows, cols side
	warm       bool // thread the warm-start states (off only under the disableWarmStart test hook)

	// denseRowPtr/denseColPtr are the arithmetic offsets k·n / k·m that give
	// dense storage the same subproblem-span form as CSR's row pointers,
	// built once per state (dense shapes never change under adoption).
	denseRowPtr, denseColPtr []int

	runner  parallel.Runner
	ownPool *parallel.Pool // set when the state created (and must close) its runner

	batches []*equilibrate.Batch // per-worker batched-kernel buffers
	errs    []error

	// Per-solve instrumentation. phaseChunk tallies its subproblems in its
	// chunk's slot of tallies; phase folds the slots into ev, the trace
	// record of the iteration in flight, and checkConvergence charges ev
	// the serial work. costs is the iteration's per-task cost group,
	// allocated only when the observer asks for costs (trace.WantsCosts).
	tallies []tally
	ev      trace.Event
	costs   []trace.PhaseCosts

	// Phase bodies are bound once per state, not per dispatch, so the hot
	// loop creates no closures.
	rowBody       func(chunk, lo, hi int)
	colBody       func(chunk, lo, hi int)
	aTBody        func(chunk, lo, hi int)
	x0TBody       func(chunk, lo, hi int)
	reconcileBody func(chunk, lo, hi int)
	deltaBody     func(chunk, lo, hi int)
	sumBody       func(chunk, lo, hi int)

	iterations int
	converged  bool
	residual   float64
	havePrev   bool
}

func newDiagState(ctx context.Context, p *DiagonalProblem, o *Options) *diagState {
	if ctx == nil {
		ctx = context.Background()
	}
	m, n := p.M, p.N
	maxDim := m
	if n > maxDim {
		maxDim = n
	}

	nv := p.Nnz()
	ar := o.Arena
	var st *diagState
	if ar != nil && ar.st != nil && ar.st.m == m && ar.st.n == n &&
		ar.st.nv == nv && (ar.st.pat != nil) == (p.Pattern != nil) {
		st = ar.st
		st.reset()
	} else {
		st = &diagState{
			m: m, n: n, nv: nv,
			x:         make([]float64, nv),
			xT:        make([]float64, nv),
			lambda:    make([]float64, m),
			mu:        make([]float64, n),
			rowSum:    make([]float64, m),
			colSum:    make([]float64, n),
			checkBuf:  make([]float64, m),
			aRow:      make([]float64, nv),
			aT:        make([]float64, nv),
			x0T:       make([]float64, nv),
			supplyBuf: make([]float64, m),
		}
		if p.Pattern == nil {
			st.denseRowPtr = spanOffsets(m, n)
			st.denseColPtr = spanOffsets(n, m)
		}
		st.bindBodies()
		if ar != nil {
			ar.st = st
		}
	}
	st.ctx, st.p, st.o = ctx, p, o
	st.arena = ar
	st.warm = !disableWarmStart

	if o.Mu0 != nil {
		copy(st.mu, o.Mu0)
	}
	if o.Criterion == MaxAbsDelta && st.xPrev == nil {
		st.xPrev = make([]float64, nv)
	}

	st.runner = o.Runner
	st.ownPool = nil
	if st.runner == nil {
		procs := o.Procs
		if procs > maxDim {
			procs = maxDim
		}
		if ar != nil {
			// The arena owns a persistent pool so repeated solves skip the
			// worker spawn; it is re-created only when Procs changes.
			if ar.pool == nil || ar.poolProcs != procs {
				if ar.pool != nil {
					ar.pool.Close()
				}
				ar.pool = parallel.NewPool(procs)
				ar.poolProcs = procs
			}
			st.runner = ar.pool
		} else {
			st.ownPool = parallel.NewPool(procs)
			st.runner = st.ownPool
		}
	}
	procs := st.runner.Workers()
	if procs > maxDim {
		procs = maxDim
	}
	if procs < 1 {
		procs = 1
	}
	// Budget plus one subproblem of overshoot (bounded rows build up to
	// 2·maxDim events), so a batch never regrows mid-phase.
	batchHint := batchEvents
	if batchHint < 2*maxDim {
		batchHint = 2 * maxDim
	}
	for len(st.batches) < procs {
		st.batches = append(st.batches, equilibrate.NewBatch(batchHint))
		st.errs = append(st.errs, nil)
		st.tallies = append(st.tallies, tally{})
	}
	st.costs = nil
	if trace.WantsCosts(o.Trace) {
		st.costs = []trace.PhaseCosts{{Row: make([]int64, m), Col: make([]int64, n)}}
	}

	// Data-dependent constants, recomputed on every solve (an adopted state
	// may carry a different problem with the same shape).
	if st.pat != p.Pattern {
		// The column mirror and the per-row check costs are functions of the
		// support, not the values; rebuild them only when the pattern itself
		// changes under an adopted state.
		st.pat = p.Pattern
		st.checkTasks = nil
		if st.pat != nil {
			st.buildCSC()
		}
	}
	for k, g := range p.Gamma {
		st.aRow[k] = 0.5 / g
	}
	if st.pat == nil {
		st.runner.ForChunks(m, st.aTBody)
	} else {
		st.runner.ForChunks(n, st.aTBody)
	}
	st.refreshX0T()
	if p.Upper != nil {
		st.upperT = resizeF(st.upperT, nv)
		st.mirror(st.upperT, p.Upper)
	} else {
		st.upperT = nil
	}
	if p.Lower != nil {
		st.lowerT = resizeF(st.lowerT, nv)
		st.mirror(st.lowerT, p.Lower)
	} else {
		st.lowerT = nil
	}
	st.bindSides()
	return st
}

// side is one phase — rows or columns — as the phase body sees it: a run of
// independent exact-equilibration subproblems over the cells of a per-cell
// layout. Subproblem k owns cells ptr[k]..ptr[k+1] of the per-cell slices,
// which are in storage order for the row side and column-mirror order for
// the column side, so one body serves both phases and both storages.
type side struct {
	name string // "row" or "column", for error messages

	// ptr holds the subproblem spans (CSR RowPtr / CSC cscPtr, or the dense
	// arithmetic offsets). idx is the opposite-dimension index of each cell
	// (ColIdx / cscRow), nil for dense storage, where cell t of every
	// subproblem faces opposite index t.
	ptr []int
	idx []int32

	x0, a  []float64 // prior and slopes a = 1/(2γ)
	lo, up []float64 // cell bounds, nil when absent
	x      []float64 // the iterate the kernel writes

	// other is the opposite side's multipliers (μ for rows, λ for columns);
	// mult and total receive this side's multipliers and kernel totals.
	other, mult, total []float64

	// r and w are the target totals and elastic weights (w nil for fixed
	// totals); balanced problems subtract e·other[k] from the target, with
	// e = 1/(2w). ilo/ihi are the total intervals of interval problems,
	// which bypass r and w.
	r, w     []float64
	balanced bool
	ilo, ihi []float64

	// slots[k][i] carries the kernel's warm-start permutation for
	// subproblem i in iteration slot k (see statesFor), and states is the
	// slot array of the phase being dispatched (nil solves cold). State i
	// always goes to subproblem i however the range is chunked or batched,
	// so warm starting cannot perturb the disjoint-partition determinism
	// contract — and warm results are bit-identical to cold ones anyway.
	// costs receives each subproblem's operation cost, nil unless the
	// observer wants costs.
	slots  [][]equilibrate.State
	states []equilibrate.State
	costs  []int64
}

// bindSides points the row and column sides at the current problem and
// buffers, keeping their warm-start slot tables.
func (st *diagState) bindSides() {
	p := st.p
	rows := side{
		name: "row", ptr: st.denseRowPtr,
		x0: p.X0, a: st.aRow, lo: p.Lower, up: p.Upper, x: st.x,
		other: st.mu, mult: st.lambda, total: st.rowSum,
		slots: st.rows.slots,
	}
	cols := side{
		name: "column", ptr: st.denseColPtr,
		x0: st.x0T, a: st.aT, lo: st.lowerT, up: st.upperT, x: st.xT,
		other: st.lambda, mult: st.mu, total: st.colSum,
		slots: st.cols.slots,
	}
	if pt := st.pat; pt != nil {
		rows.ptr, rows.idx = pt.RowPtr, pt.ColIdx
		cols.ptr, cols.idx = st.cscPtr, st.cscRow
	}
	if st.costs != nil {
		rows.costs, cols.costs = st.costs[0].Row, st.costs[0].Col
	}
	switch p.Kind {
	case FixedTotals:
		rows.r, cols.r = p.S0, p.D0
	case ElasticTotals:
		rows.r, rows.w = p.S0, p.Alpha
		cols.r, cols.w = p.D0, p.Beta
	case Balanced:
		rows.r, rows.w, rows.balanced = p.S0, p.Alpha, true
		cols.r, cols.w, cols.balanced = p.S0, p.Alpha, true
	case IntervalTotals:
		rows.ilo, rows.ihi = p.SLo, p.SHi
		cols.ilo, cols.ihi = p.DLo, p.DHi
	}
	st.rows, st.cols = rows, cols
}

// spanOffsets returns the dense subproblem spans k·w for k = 0..count.
func spanOffsets(count, w int) []int {
	ptr := make([]int, count+1)
	for k := range ptr {
		ptr[k] = k * w
	}
	return ptr
}

// mirror writes src's column-mirror image into dst: a dense transpose, or a
// CSC-order gather for CSR storage.
func (st *diagState) mirror(dst, src []float64) {
	if st.pat == nil {
		mat.Transpose(dst, src, st.m, st.n)
		return
	}
	st.gatherCSC(dst, src, 0, st.n)
}

// buildCSC derives the CSC view of st.pat by counting sort: one pass counts
// column occupancy, a prefix sum places the column starts, and a row-major
// sweep fills cscRow/cscPos — which therefore list each column's entries in
// ascending row order, exactly the order the dense column phase reads them.
func (st *diagState) buildCSC() {
	pt := st.pat
	m, n, nnz := st.m, st.n, pt.Nnz()
	st.cscPtr = resizeI(st.cscPtr, n+1)
	st.cscTmp = resizeI(st.cscTmp, n)
	st.cscRow = resizeI32(st.cscRow, nnz)
	st.cscPos = resizeI32(st.cscPos, nnz)
	clear(st.cscTmp)
	for _, j := range pt.ColIdx {
		st.cscTmp[j]++
	}
	st.cscPtr[0] = 0
	for j := 0; j < n; j++ {
		st.cscPtr[j+1] = st.cscPtr[j] + st.cscTmp[j]
		st.cscTmp[j] = st.cscPtr[j]
	}
	for i := 0; i < m; i++ {
		for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
			j := pt.ColIdx[k]
			q := st.cscTmp[j]
			st.cscRow[q] = int32(i)
			st.cscPos[q] = int32(k)
			st.cscTmp[j] = q + 1
		}
	}
}

// gatherCSC fills the column-mirror positions of columns [loCol,hiCol) from a
// storage-order source array.
func (st *diagState) gatherCSC(dst, src []float64, loCol, hiCol int) {
	for q := st.cscPtr[loCol]; q < st.cscPtr[hiCol]; q++ {
		dst[q] = src[st.cscPos[q]]
	}
}

// scatterCSC is the inverse of gatherCSC: it folds the column-mirror values of
// columns [loCol,hiCol) back into a storage-order destination. Distinct
// columns touch disjoint storage positions, so parallel bands never race.
func (st *diagState) scatterCSC(dst, src []float64, loCol, hiCol int) {
	for q := st.cscPtr[loCol]; q < st.cscPtr[hiCol]; q++ {
		dst[st.cscPos[q]] = src[q]
	}
}

// reset clears the per-solve scalars of an adopted state. Everything not
// cleared here is either recomputed by newDiagState (the data-dependent
// constants) or fully overwritten by the first iteration's phases before it
// is read (x, xT, lambda, rowSum, colSum); the kernel warm-start states are
// deliberately kept — that is the point of adoption.
func (st *diagState) reset() {
	st.iterations = 0
	st.converged = false
	st.residual = 0
	st.havePrev = false
	for i := range st.errs {
		st.errs[i] = nil
	}
	clear(st.mu) // the paper's μ¹ = 0 initialization (before any Mu0 copy)
}

// bindBodies creates the dispatch closures once for the state's lifetime.
func (st *diagState) bindBodies() {
	st.rowBody = func(chunk, lo, hi int) { st.phaseChunk(&st.rows, chunk, lo, hi) }
	st.colBody = func(chunk, lo, hi int) { st.phaseChunk(&st.cols, chunk, lo, hi) }
	// The transpose-flavored bodies are chunked over source rows when dense
	// and over columns of the CSC mirror when sparse; newDiagState and
	// refreshX0T dispatch over the matching dimension.
	st.aTBody = func(_, lo, hi int) {
		if st.pat == nil {
			mat.TransposeRange(st.aT, st.aRow, st.m, st.n, lo, hi)
			return
		}
		st.gatherCSC(st.aT, st.aRow, lo, hi)
	}
	st.x0TBody = func(_, lo, hi int) {
		if st.pat == nil {
			mat.TransposeRange(st.x0T, st.p.X0, st.m, st.n, lo, hi)
			return
		}
		st.gatherCSC(st.x0T, st.p.X0, lo, hi)
	}
	st.reconcileBody = func(_, lo, hi int) {
		if st.pat == nil {
			mat.TransposeRange(st.x, st.xT, st.n, st.m, lo, hi)
			return
		}
		st.scatterCSC(st.x, st.xT, lo, hi)
	}
	st.deltaBody = func(_, lo, hi int) {
		ptr := st.rows.ptr
		for i := lo; i < hi; i++ {
			s, e := ptr[i], ptr[i+1]
			row := st.x[s:e]
			prev := st.xPrev[s:e]
			st.checkBuf[i] = mat.MaxAbsDiff(row, prev)
			copy(prev, row)
		}
	}
	st.sumBody = func(_, lo, hi int) {
		ptr := st.rows.ptr
		for i := lo; i < hi; i++ {
			s, e := ptr[i], ptr[i+1]
			st.rowSum[i] = mat.Sum(st.x[s:e])
		}
	}
}

// close releases the state's own worker pool, if it created one. Runners
// supplied through Options — and the arena's persistent pool — stay open;
// their lifecycle belongs to the caller (or the arena).
func (st *diagState) close() {
	if st.ownPool != nil {
		st.ownPool.Close()
		st.ownPool = nil
	}
}

// refreshX0T re-syncs the transposed prior with p.X0. The diagonal solver
// calls it once (X0 is constant); the general solver calls it after each
// linear-term update, whose diagonalization rewrites X0 before every column
// phase.
func (st *diagState) refreshX0T() {
	if st.pat == nil {
		st.runner.ForChunks(st.m, st.x0TBody)
		return
	}
	st.runner.ForChunks(st.n, st.x0TBody)
}

// run executes the alternating phases until convergence, cancellation, or
// the iteration limit.
func (st *diagState) run() error {
	o := st.o
	obs := o.Trace
	for t := 1; t <= o.MaxIterations; t++ {
		if err := st.ctx.Err(); err != nil {
			return err
		}
		st.iterations = t
		st.beginIteration("sea")
		var mark time.Time
		if obs != nil {
			mark = time.Now()
		}
		if err := st.rowPhase(); err != nil {
			return err
		}
		if obs != nil {
			now := time.Now()
			st.ev.RowPhase = now.Sub(mark)
			mark = now
		}
		if err := st.colPhase(); err != nil {
			return err
		}
		if obs != nil {
			now := time.Now()
			st.ev.ColPhase = now.Sub(mark)
			mark = now
		}
		if o.BoundMultipliers && st.p.Kind != ElasticTotals {
			st.boundMultipliers()
		}
		checked := t%o.CheckEvery == 0
		done := checked && st.checkConvergence()
		if obs != nil {
			st.ev.CheckPhase = time.Since(mark)
			st.ev.Checked = checked
			st.ev.Residual = math.NaN()
			if checked {
				st.ev.Residual = st.residual
			}
			obs.ObserveIteration(st.ev)
		}
		if done {
			st.converged = true
			return nil
		}
	}
	return fmt.Errorf("%w after %d iterations (criterion %v, residual %g, ε %g)",
		ErrNotConverged, o.MaxIterations, o.Criterion, st.residual, o.Epsilon)
}

// beginIteration starts the trace record of iteration st.iterations and
// clears the serial part of its cost group (the phases overwrite every
// task cost).
func (st *diagState) beginIteration(solver string) {
	st.ev = trace.Event{Solver: solver, Iteration: st.iterations, Costs: st.costs}
	if st.costs != nil {
		st.costs[0].Check, st.costs[0].Serial = nil, 0
	}
}

// Warm-start slot policy: with an arena, each of the first maxWarmSlots
// outer iterations gets its own state slot, so a repeated same-shape solve
// replays the permutation of the *matching* iteration of the previous solve
// — the breakpoint order is nearly identical there, whereas consecutive
// iterations early in a solve reorder wildly. Iterations past the cap share
// the last slot (consecutive-iteration mode), which works near convergence
// where the duals drift slowly. Without an arena nothing survives the
// solve, so a single consecutive-iteration slot engages only once the solve
// is old enough (past warmOnset) for the duals to have settled; short
// solves skip the machinery — and its allocations — entirely. The onset is
// deliberately high: a solve converging in a handful of iterations would
// pay the per-subproblem State allocations and mostly-failing replays for
// at most one or two iterations of benefit, while long dual-descent runs
// (hundreds of iterations, e.g. the SPE instances) amortize them many
// times over.
const (
	maxWarmSlots = 4
	warmOnset    = 8
)

// statesFor returns the warm-start state array of sd for the current
// iteration, growing its slot table lazily; nil means solve cold this phase.
// Fresh slots of unbounded problems get their permutation buffers from a
// single slab, sized by the known per-subproblem event count (the span
// widths), so engaging warm starts mid-solve does not cost one allocation
// per subproblem. Bounds make the count value-dependent, so bounded problems
// grow each buffer on first use.
func (st *diagState) statesFor(sd *side) []equilibrate.State {
	if !st.warm {
		return nil
	}
	k := 0
	if st.arena != nil {
		if k = st.iterations; k > maxWarmSlots {
			k = maxWarmSlots
		}
		k--
	} else if st.iterations <= warmOnset {
		return nil
	}
	for len(sd.slots) <= k {
		sd.slots = append(sd.slots, nil)
	}
	if sd.slots[k] == nil {
		sts := make([]equilibrate.State, len(sd.ptr)-1)
		if st.p.Upper == nil && st.p.Lower == nil {
			equilibrate.PresizeStatesSpans(sts, sd.ptr)
		}
		sd.slots[k] = sts
	}
	return sd.slots[k]
}

// rowPhase solves the m independent row equilibrium subproblems in parallel,
// updating x row-wise, λ, and rowSum.
func (st *diagState) rowPhase() error {
	return st.phase(&st.rows, st.rowBody)
}

// colPhase solves the n independent column equilibrium subproblems in
// parallel, updating x column-wise, μ, and colSum. Every array it touches
// per column — the mirrored prior, slopes and bounds, and the column-major
// mirror the kernel writes into — is contiguous; a blocked transpose (dense)
// or CSC scatter (CSR) then folds the mirror back into the iterate.
func (st *diagState) colPhase() error {
	if err := st.phase(&st.cols, st.colBody); err != nil {
		return err
	}
	// Each band writes a disjoint set of x entries, so the result is
	// partition-independent.
	st.runner.ForChunks(st.p.N, st.reconcileBody)
	return nil
}

// phase dispatches one side's subproblems over the workers and folds their
// tallies into the iteration's trace record.
func (st *diagState) phase(sd *side, body func(chunk, lo, hi int)) error {
	sd.states = st.statesFor(sd)
	err := st.runner.ForChunksCtx(st.ctx, len(sd.ptr)-1, body)
	for c, t := range st.tallies {
		st.ev.Equilibrations += t.equil
		st.ev.Ops += t.ops
		st.tallies[c] = tally{}
	}
	if err != nil {
		return err
	}
	return st.takeErr()
}

// tally is one worker chunk's equilibration count and operation total in
// the phase being dispatched.
type tally struct{ equil, ops int64 }

// batchEvents is the batched kernel's per-chunk event budget: enough
// concatenated breakpoint events (16 bytes of key each) that the fused radix
// amortizes its counting passes over many subproblems while the working set
// (keys + ping-pong + canonical ≈ 3×16 B×budget) stays inside L2. See
// docs/PERFORMANCE.md. It is a variable only so the batch-boundary tests
// can move it; solutions do not depend on it.
var batchEvents = 1 << 12

// disableWarmStart turns off the kernel's warm-started breakpoint sorts,
// forcing a full cold sort in every subproblem. Warm starts are exact, so
// results are bit-identical either way; it is a variable only so the
// warm ≡ cold test and the warm-start ablation benchmark can flip it.
var disableWarmStart bool

// maxBatchRows caps the subproblems per batch regardless of their size: past
// this the per-segment metadata the batch streams (segment descriptors, offsets,
// results) outgrows the event data itself — the regime of very small
// subproblems, where huge batches stop paying (measured on the sparse
// table5/spe250 instances).
const maxBatchRows = 128

// batchEnd returns the end of the batch starting at lo: as many subproblems
// as fit the event budget given their widths (perEntry events per cell of
// span ptr[k]..ptr[k+1]), always at least one, capped at maxBatchRows.
// Sizing by actual width means skewed sparse supports cannot blow the
// budget.
func batchEnd(lo, hi, perEntry, target int, ptr []int) int {
	events := 0
	end := lo
	for end < hi {
		ev := perEntry * (ptr[end+1] - ptr[end])
		if end > lo && (events+ev > target || end-lo >= maxBatchRows) {
			break
		}
		events += ev
		end++
	}
	return end
}

// phaseChunk is the phase body for one worker's subproblem range [lo,hi) of
// either side: it walks the range in event-budget batches, accumulating each
// subproblem into the worker's Batch and solving the group with the fused
// sort. A subproblem's result does not depend on the batch it sits in, so
// per-subproblem outputs, tallies, task costs, and warm-start states do not
// depend on the batch boundaries. Structural zeros of CSR storage never enter a subproblem, and
// the kernel skips pinned (u = l) cells, so a densified copy of a CSR problem
// walks a bit-identical event stream.
func (st *diagState) phaseChunk(sd *side, chunk, lo, hi int) {
	b := st.batches[chunk]
	ptr, idx, other := sd.ptr, sd.idx, sd.other
	x0, a, x, lower, upper := sd.x0, sd.a, sd.x, sd.lo, sd.up
	r, w, balanced, ilo, ihi := sd.r, sd.w, sd.balanced, sd.ilo, sd.ihi
	states, mult, total, costs := sd.states, sd.mult, sd.total, sd.costs
	perEntry := 1
	if upper != nil {
		perEntry = 2
	}
	tl := &st.tallies[chunk]
	// One Problem serves every subproblem: Add copies what it keeps, and
	// the kernel gathers each coefficient x⁰ + a·other[idx] itself while it
	// builds the breakpoints.
	prob := equilibrate.Problem{Other: other}
	for lo < hi {
		end := batchEnd(lo, hi, perEntry, batchEvents, ptr)
		b.Reset()
		for k := lo; k < end; k++ {
			s, e := ptr[k], ptr[k+1]
			prob.C, prob.A = x0[s:e], a[s:e]
			if idx != nil {
				prob.Idx = idx[s:e]
			}
			if upper != nil {
				prob.U = upper[s:e]
			}
			if lower != nil {
				prob.L = lower[s:e]
			}
			var est *equilibrate.State
			if states != nil {
				est = &states[k]
			}
			var err error
			if ilo != nil {
				err = b.AddInterval(&prob, ilo[k], ihi[k], x[s:e], est)
			} else {
				prob.R = r[k]
				if w != nil {
					el := 0.5 / w[k]
					prob.E = el
					if balanced {
						prob.R = r[k] - el*other[k]
					}
				}
				err = b.Add(&prob, x[s:e], est)
			}
			if err != nil {
				st.fail(chunk, sd, k, err)
				return
			}
		}
		if bad, err := b.Solve(); err != nil {
			st.fail(chunk, sd, lo+bad, err)
			return
		}
		var costSum int64
		for k := lo; k < end; k++ {
			res := b.Result(k - lo)
			mult[k] = res.Lambda
			total[k] = res.Total
			cost := res.Ops + int64(2*(ptr[k+1]-ptr[k]))
			costSum += cost
			if costs != nil {
				costs[k] = cost
			}
		}
		tl.equil += int64(end - lo)
		tl.ops += costSum
		lo = end
	}
}

// fail records a worker's first error, attributed to subproblem k of sd.
func (st *diagState) fail(chunk int, sd *side, k int, err error) {
	if st.errs[chunk] == nil {
		st.errs[chunk] = fmt.Errorf("%s %d: %w", sd.name, k, err)
	}
}

// takeErr returns (and clears) the first recorded worker error.
func (st *diagState) takeErr() error {
	for c, err := range st.errs {
		if err != nil {
			st.errs[c] = nil
			return err
		}
	}
	return nil
}

// supplies writes the dual-consistent row total estimates S_i(λ,μ) into dst.
// For interval problems the estimate is the current row sum clamped to its
// interval, so callers must refresh st.rowSum from the current iterate
// first (p.RowSums).
func (st *diagState) supplies(dst []float64) {
	p := st.p
	switch p.Kind {
	case FixedTotals:
		copy(dst, p.S0)
	case ElasticTotals:
		for i := range dst {
			dst[i] = p.S0[i] - st.lambda[i]/(2*p.Alpha[i])
		}
	case Balanced:
		for i := range dst {
			dst[i] = p.S0[i] - (st.lambda[i]+st.mu[i])/(2*p.Alpha[i])
		}
	case IntervalTotals:
		// The dual-consistent total follows the multiplier's sign: a
		// positive λ asserts the lower bound binds, a negative one the
		// upper; only a zero multiplier tolerates an interior sum. This
		// makes the residual |S_i − Σ_j x_ij| enforce complementarity, not
		// just interval feasibility.
		for i := range dst {
			dst[i] = intervalTarget(st.lambda[i], st.rowSum[i], p.SLo[i], p.SHi[i])
		}
	}
}

// intervalTarget returns the total an interval constraint's multiplier
// asserts: its binding bound when nonzero, the nearest interval point to
// the current sum when zero.
func intervalTarget(mult, sum, lo, hi float64) float64 {
	switch {
	case mult > 0:
		return lo
	case mult < 0:
		return hi
	default:
		return math.Min(math.Max(sum, lo), hi)
	}
}

// demands writes the dual-consistent column total estimates D_j(λ,μ) into
// dst. For interval problems the column constraints hold exactly after the
// column phase, so the kernel totals in st.colSum are current.
func (st *diagState) demands(dst []float64) {
	p := st.p
	switch p.Kind {
	case FixedTotals:
		copy(dst, p.D0)
	case ElasticTotals:
		for j := range dst {
			dst[j] = p.D0[j] - st.mu[j]/(2*p.Beta[j])
		}
	case Balanced:
		st.supplies(dst)
	case IntervalTotals:
		for j := range dst {
			dst[j] = intervalTarget(st.mu[j], st.colSum[j], p.DLo[j], p.DHi[j])
		}
	}
}

// checkConvergence runs the convergence-verification phase. It recomputes
// the row sums (or per-row deltas) of the current iterate — the column
// constraints hold exactly after the column phase — evaluates the selected
// criterion, and charges the op counts the paper attributes to this phase.
//
// By default the whole check is the algorithm's only serial phase, exactly
// as the paper implements it; with Options.ParallelConvCheck the O(m·n)
// scan runs as m parallel tasks and only the O(m) reduction stays serial
// (the enhancement the paper suggests in Section 4.2).
func (st *diagState) checkConvergence() bool {
	p, o := st.p, st.o
	m := p.M
	var serialOps int64
	if o.ParallelConvCheck {
		serialOps = int64(2 * m)
		if st.costs != nil {
			// Every check task scans exactly its row's stored width (n dense,
			// row nnz sparse), every iteration, so all checks share one
			// read-only cost slice instead of allocating a fresh one per check.
			if st.checkTasks == nil {
				st.checkTasks = make([]int64, m)
				for i := range st.checkTasks {
					st.checkTasks[i] = int64(st.rows.ptr[i+1] - st.rows.ptr[i])
				}
			}
			st.costs[0].Check = st.checkTasks
		}
	} else {
		serialOps = int64(st.nv + 2*m)
	}
	st.ev.SerialOps += serialOps
	if st.costs != nil {
		st.costs[0].Serial = serialOps
	}

	// perRow dispatches a pre-bound per-row body, in parallel when the check
	// phase is parallelized.
	perRow := func(body func(chunk, lo, hi int)) {
		if o.ParallelConvCheck {
			st.runner.ForChunks(m, body)
		} else {
			body(0, 0, m)
		}
	}

	switch o.Criterion {
	case MaxAbsDelta:
		if !st.havePrev {
			copy(st.xPrev, st.x)
			st.havePrev = true
			st.residual = math.Inf(1)
			return false
		}
		perRow(st.deltaBody)
		st.residual = mat.MaxAbs(st.checkBuf)
		return st.residual <= o.Epsilon

	case RelBalance, DualGradient:
		perRow(st.sumBody)
		s := st.supplyBuf
		st.supplies(s)
		var worst float64
		for i := 0; i < m; i++ {
			r := math.Abs(s[i] - st.rowSum[i])
			if o.Criterion == RelBalance {
				if denom := math.Abs(s[i]); denom > 1e-12 {
					r /= denom
				}
			}
			if r > worst {
				worst = r
			}
		}
		st.residual = worst
		return worst <= o.Epsilon
	}
	return false
}

// solution packages the current iterate. Without an arena the Solution gets
// fresh totals/multiplier arrays and adopts st.x (the state is about to be
// dropped); with an arena every array is arena-owned and reused, so the
// result is valid until the next solve on the same arena.
func (st *diagState) solution() *Solution {
	p := st.p
	var sol *Solution
	var s, d []float64
	if ar := st.arena; ar != nil {
		ar.solX = resizeF(ar.solX, st.nv)
		ar.solS = resizeF(ar.solS, p.M)
		ar.solD = resizeF(ar.solD, p.N)
		ar.solLambda = resizeF(ar.solLambda, p.M)
		ar.solMu = resizeF(ar.solMu, p.N)
		copy(ar.solX, st.x)
		copy(ar.solLambda, st.lambda)
		copy(ar.solMu, st.mu)
		s, d = ar.solS, ar.solD
		sol = &ar.sol
		*sol = Solution{X: ar.solX, S: s, D: d, Lambda: ar.solLambda, Mu: ar.solMu}
	} else {
		s = make([]float64, p.M)
		d = make([]float64, p.N)
		sol = &Solution{X: st.x, S: s, D: d, Lambda: mat.Clone(st.lambda), Mu: mat.Clone(st.mu)}
	}
	if p.Kind == IntervalTotals {
		p.RowSums(st.x, st.rowSum) // supplies() clamps the current sums
	}
	st.supplies(s)
	st.demands(d)
	sol.Iterations = st.iterations
	sol.Converged = st.converged
	sol.Residual = st.residual
	obj, z := p.cellSums(st.x, st.lambda, st.mu)
	sol.Objective = p.addTotalsPenalty(obj, s, d)
	sol.DualValue = p.addTotalsDual(z, st.lambda, st.mu)
	return sol
}
