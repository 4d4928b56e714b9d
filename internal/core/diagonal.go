package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"sea/internal/equilibrate"
	"sea/internal/mat"
	"sea/internal/parallel"
	"sea/internal/scale"
	"sea/internal/trace"
)

// SolveDiagonal runs the splitting equilibration algorithm on a diagonal
// constrained matrix problem (paper Section 3.1): alternating parallel row
// and column exact-equilibration phases — dual block-coordinate ascent on
// ζ_l(λ,μ) — until the convergence criterion is met. Once the checked
// residuals fall at a steady rate, the phases over-relax by Young's factor
// (see diagState.run); PinOmega keeps the paper's plain iteration.
//
// Cancellation is observed between phases: when ctx is cancelled or its
// deadline passes, the solve returns within one outer iteration with the
// last consistent iterate and ctx.Err(). The ISP preconditioning stage
// checks ctx every few sweeps; a cancel there returns ctx.Err() and no
// solution, without starting SEA. A nil ctx means context.Background.
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
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.WithDefaults()
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
		var err error
		if p, err = ps.apply(ctx, p, o); err != nil {
			return nil, err
		}
	}
	st := newDiagState(ctx, p, o)
	defer st.close()
	err := st.run()
	if errors.Is(err, ErrInfeasible) {
		return nil, err
	}
	sol := st.solution()
	if ps != nil {
		ps.unscale(sol)
	}
	return sol, err
}

// diagState carries the working arrays of one diagonal solve.
//
// The iterate x is kept in storage order only (row-major, or CSR order).
// The row phase and the convergence check walk it in place; the column
// phase works a batch of columns at a time through its worker's colTile,
// into which it gathers the batch's per-cell data and from which it
// scatters the batch's x back when the batch ends. Dense storage gathers
// straight from the row-major arrays; CSR storage reads its constants from
// CSC-order copies taken once per solve (see the pat field).
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

	// pat is the problem's CSR pattern (nil for dense storage). The CSC
	// view of the same support is rebuilt whenever an adopted state sees a
	// different pattern: cscPtr[j]..cscPtr[j+1] are column j's positions in
	// CSC order, cscRow their row indices, and cscPos the permutation from
	// CSC position back to CSR position. x0T, aT, upperT and lowerT hold the
	// prior, slopes and bounds in CSC order (the bounds nil when absent),
	// gathered once per solve; dense storage has none of them.
	pat    *Pattern
	cscPtr []int
	cscRow []int32
	cscPos []int32
	x0T    []float64
	aT     []float64
	upperT []float64
	lowerT []float64

	x        []float64 // current matrix iterate in storage order (row-major / CSR)
	xPrev    []float64 // previous checked iterate (MaxAbsDelta only)
	lambda   []float64 // row multipliers λ_i
	mu       []float64 // column multipliers μ_j
	rowSum   []float64 // Σ_j x_ij as returned by the latest row phase
	colSum   []float64 // Σ_i x_ij as returned by the latest column phase
	checkBuf []float64 // per-row scratch for the parallel convergence check

	aRow       []float64 // slopes a_ij = 1/(2γ_ij), storage order
	supplyBuf  []float64 // supplies scratch for checkConvergence, hoisted off the hot loop
	checkTasks []int64   // shared parallel-check trace costs (row i's entry is its stored width)

	// rows and cols describe the two phases to the one phase body,
	// phaseChunk (see side). They are re-bound at the end of every
	// newDiagState, since an adopted state may carry a different problem.
	rows, cols side
	warm       bool // thread the warm-start states (off only under the disableWarmStart test hook)
	stream     bool // the column phase in flight runs streamColumns (see colPhase)

	runner  *parallel.Pool
	ownPool *parallel.Pool // set when the state created (and must close) its runner

	kernels []*equilibrate.Kernel // per-worker kernel scratch
	tiles   []colTile             // per-worker column-batch tiles
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
	rowBody   func(chunk, lo, hi int)
	colBody   func(chunk, lo, hi int)
	deltaBody func(chunk, lo, hi int)
	sumBody   func(chunk, lo, hi int)

	// Over-relaxation (see run): sor reads Young's ω off the checked
	// residuals, and omega is the factor the phases apply (1: plain SEA).
	// relaxSlab holds the relaxed μ̃ the row phase reads once the rule has
	// engaged, then its rollback checkpoint, n each; it is empty until ω
	// first engages in a solve, and its backing array stays with the state.
	sor       scale.SOR
	omega     float64
	relaxSlab []float64

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
			lambda:    make([]float64, m),
			mu:        make([]float64, n),
			rowSum:    make([]float64, m),
			colSum:    make([]float64, n),
			checkBuf:  make([]float64, m),
			aRow:      make([]float64, nv),
			supplyBuf: make([]float64, m),
		}
		if p.Pattern == nil {
			// The arithmetic offsets k·n / k·m give dense storage the same
			// subproblem-span form as CSR's row pointers; bindSides keeps
			// them (dense shapes never change under adoption).
			st.rows.ptr = spanOffsets(m, n)
			st.cols.ptr = spanOffsets(n, m)
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
	// Bounded subproblems build up to 2·maxDim events, so a kernel never
	// regrows mid-phase.
	for len(st.kernels) < procs {
		st.kernels = append(st.kernels, equilibrate.NewKernel(2*maxDim))
		st.tiles = append(st.tiles, colTile{})
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
		// The CSC view and the per-row check costs are functions of the
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
	if st.pat != nil {
		st.x0T = st.cscCopy(st.x0T, p.X0)
		st.aT = st.cscCopy(st.aT, st.aRow)
		st.upperT = st.cscCopy(st.upperT, p.Upper)
		st.lowerT = st.cscCopy(st.lowerT, p.Lower)
	}
	st.bindSides()
	return st
}

// side is one phase — rows or columns — as the phase body sees it: a run of
// independent exact-equilibration subproblems. Subproblem k owns cells
// ptr[k]..ptr[k+1] of the side's cell order: storage order for the row side,
// column order for the column side, so one body serves both phases and both
// storages. The column side's cells are not in storage order, so phaseChunk
// reaches them through the worker's colTile (see loadTile).
type side struct {
	// ptr holds the subproblem spans (CSR RowPtr / CSC cscPtr, or the dense
	// arithmetic offsets).
	ptr []int
	cells

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

// cells is the per-cell data of a run of subproblems, indexed in the run's
// cell order. idx is the opposite-dimension index of each cell (ColIdx /
// cscRow), nil for dense storage, where cell t of every subproblem faces
// opposite index t. x is where the kernel writes the iterate.
type cells struct {
	idx    []int32
	x0, a  []float64 // prior and slopes a = 1/(2γ)
	lo, up []float64 // cell bounds, nil when absent
	x      []float64
}

// colTile is one worker's column scratch. As a batch tile it holds a batch
// of columns, column after column: the kernel writes the batch's x into it,
// and the batch scatters x back into storage order when it ends. Dense
// storage also gathers into it, from row-major storage, each cell's
// coefficient c = x⁰ + a·λ — the expression the kernel's own gather
// evaluates, so the kernel reads c as is — its slope, and its bounds when
// present. The storage-order column pass (streamColumns) keeps its
// per-column figures in sums and seg.
type colTile struct {
	c, a, lo, up, x []float64

	// sums holds ten runs of one entry per column of the worker's window:
	// the coefficient sums c by row index mod 4, the slope sums likewise,
	// each column's interior root μ°, and its total Σx (NaN: fall back).
	sums []float64
	seg  []int // each column's count of cells above 0
}

// bindSides points the row and column sides at the current problem and
// buffers, keeping their warm-start slot tables.
func (st *diagState) bindSides() {
	p := st.p
	rows := side{
		ptr:   st.rows.ptr,
		cells: cells{x0: p.X0, a: st.aRow, lo: p.Lower, up: p.Upper, x: st.x},
		other: st.mu, mult: st.lambda, total: st.rowSum,
		slots: st.rows.slots,
	}
	// The dense column side keeps the storage-order arrays, which loadTile
	// gathers from.
	cols := side{
		ptr:   st.cols.ptr,
		cells: rows.cells,
		other: st.lambda, mult: st.mu, total: st.colSum,
		slots: st.cols.slots,
	}
	if pt := st.pat; pt != nil {
		rows.ptr, rows.idx = pt.RowPtr, pt.ColIdx
		cols.ptr = st.cscPtr
		cols.cells = cells{idx: st.cscRow, x0: st.x0T, a: st.aT, lo: st.lowerT, up: st.upperT}
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
	st.omega, st.relaxSlab = 1, st.relaxSlab[:0]
}

// spanOffsets returns the dense subproblem spans k·w for k = 0..count.
func spanOffsets(count, w int) []int {
	ptr := make([]int, count+1)
	for k := range ptr {
		ptr[k] = k * w
	}
	return ptr
}

// buildCSC derives the CSC view of st.pat by counting sort: one pass counts
// column occupancy, a prefix sum places the column starts, and a row-major
// sweep fills cscRow/cscPos — which therefore list each column's entries in
// ascending row order, exactly the order the dense column phase reads them.
// The sweep uses cscPtr[j+1] as column j's cursor, which leaves it at
// column j's end, its final value.
func (st *diagState) buildCSC() {
	pt := st.pat
	m, n, nnz := st.m, st.n, pt.Nnz()
	st.cscPtr = resizeI(st.cscPtr, n+1)
	st.cscRow = resizeI32(st.cscRow, nnz)
	st.cscPos = resizeI32(st.cscPos, nnz)
	ptr := st.cscPtr
	clear(ptr)
	for _, j := range pt.ColIdx {
		ptr[j+1]++
	}
	// After this shift and prefix sum, ptr[j+1] is column j's start.
	for j := n; j > 0; j-- {
		ptr[j] = ptr[j-1]
	}
	ptr[0] = 0
	for j := 1; j <= n; j++ {
		ptr[j] += ptr[j-1]
	}
	for i := 0; i < m; i++ {
		for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
			j := pt.ColIdx[k]
			q := ptr[j+1]
			st.cscRow[q] = int32(i)
			st.cscPos[q] = int32(k)
			ptr[j+1] = q + 1
		}
	}
}

// cscCopy returns the storage-order array src in CSC order, in dst's backing
// array when it is large enough; nil when src is nil.
func (st *diagState) cscCopy(dst, src []float64) []float64 {
	if src == nil {
		return nil
	}
	dst = resizeF(dst, len(src))
	for q, k := range st.cscPos {
		dst[q] = src[k]
	}
	return dst
}

// loadTile readies worker tile t for the column batch [lo,end) of sd and
// returns the batch's cells, indexed from the batch's first cell. Dense
// storage gathers the coefficients, slopes and bounds row by row, reading
// each row's stretch of the batch's columns contiguously; CSR storage reads
// its CSC copies in place. Either way the kernel writes x into the tile.
func (st *diagState) loadTile(t *colTile, sd *side, lo, end int) cells {
	base, size := sd.ptr[lo], sd.ptr[end]-sd.ptr[lo]
	t.x = resizeF(t.x, size)
	if st.pat != nil {
		return cells{idx: sd.idx[base:], x0: sd.x0[base:], a: sd.a[base:],
			lo: tail(sd.lo, base), up: tail(sd.up, base), x: t.x}
	}
	t.c, t.a = resizeF(t.c, size), resizeF(t.a, size)
	cl := cells{x0: t.c, a: t.a, x: t.x}
	m, n, w := st.m, st.n, end-lo
	for i := 0; i < m; i++ {
		li := sd.other[i]
		r := i*n + lo
		x0, a := sd.x0[r:r+w], sd.a[r:r+w]
		for j, v := range a {
			q := j*m + i
			t.c[q] = x0[j] + v*li
			t.a[q] = v
		}
	}
	if sd.lo != nil {
		t.lo = resizeF(t.lo, size)
		st.gatherCols(t.lo, sd.lo, lo, end)
		cl.lo = t.lo
	}
	if sd.up != nil {
		t.up = resizeF(t.up, size)
		st.gatherCols(t.up, sd.up, lo, end)
		cl.up = t.up
	}
	return cl
}

// gatherCols copies columns [lo,end) of the dense row-major src into dst,
// column after column.
func (st *diagState) gatherCols(dst, src []float64, lo, end int) {
	m, n := st.m, st.n
	for i := 0; i < m; i++ {
		for j, v := range src[i*n+lo : i*n+end] {
			dst[j*m+i] = v
		}
	}
}

// storeTile scatters the x of tile t, the column batch [lo,end) of sd, back
// into the storage-order iterate. Distinct columns own disjoint cells, so
// workers storing concurrently never race.
func (st *diagState) storeTile(t *colTile, sd *side, lo, end int) {
	if st.pat != nil {
		base := sd.ptr[lo]
		for q, k := range st.cscPos[base:sd.ptr[end]] {
			st.x[k] = t.x[q]
		}
		return
	}
	m, n := st.m, st.n
	for i := 0; i < m; i++ {
		row := st.x[i*n+lo : i*n+end]
		for j := range row {
			row[j] = t.x[j*m+i]
		}
	}
}

// tail returns s[base:], or nil for a nil s.
func tail(s []float64, base int) []float64 {
	if s == nil {
		return nil
	}
	return s[base:]
}

// reset clears the per-solve scalars of an adopted state. Everything not
// cleared here is either recomputed by newDiagState (the data-dependent
// constants) or fully overwritten by the first iteration's phases before it
// is read (x, lambda, rowSum, colSum); the kernel warm-start states are
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
	st.colBody = func(chunk, lo, hi int) {
		if st.stream {
			st.streamColumns(chunk, lo, hi)
		} else {
			st.phaseChunk(&st.cols, chunk, lo, hi)
		}
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

// run executes the alternating phases until convergence, cancellation, or
// the iteration limit.
//
// SEA is two-block Gauss–Seidel on the dual (λ, μ), and run over-relaxes
// it once its rate settles, by Young's rule read off the checked residuals
// (scale.SOR): each row phase moves λ to λ + ω(λ̂ − λ), and each column
// phase moves a relaxed copy μ̃ to μ̃ + ω(μ̂ − μ̃), which the row phase then
// reads in place of μ. The column phase reads the relaxed λ and writes its
// own μ̂ into μ, so the reported (x, λ, μ) is always the last column phase's
// exact output and the check measures its true row residual. A rollback
// restores μ̃, the row phase's one input, from the checkpoint. Solves whose
// rule never engages, those pinned by PinOmega, and those that bound their
// multipliers (whose shift would have to move μ̃ too) run plain SEA.
func (st *diagState) run() error {
	o := st.o
	obs := o.Trace
	relax := !o.pinOmega && !o.BoundMultipliers
	st.sor.Start(o.CheckEvery)
	for t := 1; t <= o.MaxIterations; t++ {
		if err := st.ctx.Err(); err != nil {
			return err
		}
		// Offer the processor at each cancellation poll. A solve that
		// allocates little can otherwise hold a lone P for its whole
		// length: a GC cycle started mid-solve then waits for its mark
		// worker until the runtime preempts the solve (10 ms), and every
		// allocation in between pays mark assists. With nothing else
		// runnable the call returns at once.
		runtime.Gosched()
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
		if checked && st.residual != st.residual && !(relax && st.sor.Omega() > 1) {
			return fmt.Errorf("%w: sea %w at iteration %d", ErrNotConverged, ErrDiverged, t)
		}
		if checked && relax {
			st.adaptOmega()
		}
	}
	return fmt.Errorf("%w after %d iterations (criterion %v, residual %g, ε %g)",
		ErrNotConverged, o.MaxIterations, o.Criterion, st.residual, o.Epsilon)
}

// adaptOmega feeds the checked residual to the ω rule and carries out its
// verdict on μ̃: a checkpoint saves it, a rollback restores it. A NaN
// residual while ω > 1 rolls back too.
func (st *diagState) adaptOmega() {
	res := st.residual
	n := st.n
	if res != res && st.sor.Omega() > 1 {
		st.sor.Rollback()
		copy(st.relaxSlab[:n], st.relaxSlab[n:])
		res = math.Inf(1)
	}
	switch st.sor.Observe(res, true) {
	case scale.WindowCheckpoint:
		if len(st.relaxSlab) == 0 {
			// Engage: μ̃ starts at μ, which it equals while ω is 1, and
			// the row phase reads it from now on.
			st.relaxSlab = resizeF(st.relaxSlab, 2*n)
			copy(st.relaxSlab, st.mu)
			st.rows.other = st.relaxSlab[:n]
		}
		copy(st.relaxSlab[n:], st.relaxSlab[:n])
	case scale.WindowRollback:
		copy(st.relaxSlab[:n], st.relaxSlab[n:])
	}
	st.omega = st.sor.Omega()
	if omegaHook != nil {
		st.omega = omegaHook(st.iterations, st.omega)
	}
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
// solve, so a single consecutive-iteration slot engages once the solve is
// past warmOnset iterations: it fills at iteration warmOnset+1 and replays
// from warmOnset+2. Solves that converge within warmOnset iterations (the
// two-iteration fixed-totals solves) skip the machinery — and its
// allocations — entirely. A lower onset costs more than it saves: at onset
// 1 a two-iteration solve allocates the States for one replay it never
// runs, and at onset 0 the second iteration replays the first, whose order
// the duals have not settled into yet.
const (
	maxWarmSlots = 4
	warmOnset    = 2
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
// parallel, updating x column-wise, μ, and colSum. On dense storage with
// neither cell bounds nor interval totals, each worker first tries its
// columns' interior roots in storage order (streamColumns); otherwise, and
// for the columns that miss, it takes its columns a batch at a time through
// its colTile (see phaseChunk). The storage-order pass is skipped when the
// iteration's row phase solved no row at its interior root (ev.Interior,
// tallied whether or not an observer is attached): its columns are then
// unlikely to be interior either (on elastic-isp none is), and the pass
// would add two reads of the matrix and its per-worker sums buffer (10
// floats and an int per column, allocated by every cold solve) for
// nothing. The route reads only the data, and either gives the same bits.
func (st *diagState) colPhase() error {
	p := st.p
	st.stream = !tileColumns && st.pat == nil && p.Upper == nil && p.Lower == nil &&
		p.Kind != IntervalTotals && st.ev.Interior > 0
	return st.phase(&st.cols, st.colBody)
}

// phase dispatches one side's subproblems over the workers and folds their
// tallies into the iteration's trace record.
func (st *diagState) phase(sd *side, body func(chunk, lo, hi int)) error {
	sd.states = st.statesFor(sd)
	err := st.runner.ForChunksCtx(st.ctx, len(sd.ptr)-1, body)
	for c, t := range st.tallies {
		st.ev.Equilibrations += t.equil
		st.ev.Interior += t.interior
		st.ev.Ops += t.ops
		st.tallies[c] = tally{}
	}
	if err != nil {
		return err
	}
	return st.takeErr()
}

// tally is one worker chunk's equilibration count, how many of them were
// solved at their interior root, and its operation total in the phase being
// dispatched.
type tally struct{ equil, interior, ops int64 }

// batchEvents is the column tile's per-batch event budget (perEntry events
// per cell): it sizes the batch of columns whose cells loadTile gathers
// into a worker's tile and storeTile scatters back. It is a variable only
// so the batch-boundary tests can move it; solutions do not depend on it.
var batchEvents = 1 << 12

// omegaHook, when set, sees the factor the ω rule holds after each checked
// iteration and returns the one the phases apply. It is a variable only so
// tests can watch the rule and inject a bad factor.
var omegaHook func(iteration int, omega float64) float64

// tileColumns sends every dense column through the batch tile, skipping
// the storage-order interior pass (streamColumns). Both routes give the
// same bits; it is a variable only so the equivalence tests can compare
// them.
var tileColumns bool

// disableWarmStart turns off the kernel's warm-started breakpoint sorts,
// forcing a full cold sort in every subproblem. Warm starts are exact, so
// results are bit-identical either way; it is a variable only so the
// warm ≡ cold test and the warm-start ablation benchmark can flip it.
var disableWarmStart bool

// maxBatchRows caps the columns per tile batch regardless of their size, so
// a tile of short columns still scatters back after at most this many.
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
// either side: it hands each subproblem to the worker's Kernel and writes
// its multiplier, total and task cost at once. Structural zeros of CSR
// storage never enter a subproblem, and the kernel skips pinned (u = l)
// cells, so a densified copy of a CSR problem walks a bit-identical event
// stream.
//
// The column side works in event-budget batches of columns, each in the
// worker's colTile: loadTile fills it before the batch's first subproblem,
// and storeTile scatters its x once the batch is solved. A subproblem's
// result does not depend on the batch it sits in, so per-subproblem outputs,
// tallies, task costs, and warm-start states do not depend on the batch
// boundaries. It reports whether every subproblem was solved; on the first
// failure it records the error and stops.
func (st *diagState) phaseChunk(sd *side, chunk, lo, hi int) bool {
	kern := st.kernels[chunk]
	ptr, other := sd.ptr, sd.other
	cl := sd.cells
	ilo, ihi := sd.ilo, sd.ihi
	states, total, costs := sd.states, sd.total, sd.costs
	relaxed := st.relaxed(sd)
	perEntry := 1
	if cl.up != nil {
		perEntry = 2
	}
	tl := &st.tallies[chunk]
	var tile *colTile
	if sd == &st.cols {
		tile = &st.tiles[chunk]
	}
	// One Problem serves every subproblem, and the kernel gathers each
	// coefficient x⁰ + a·other[idx] itself while it builds the breakpoints
	// — except from a dense tile, which holds the coefficients already.
	prob := equilibrate.Problem{Other: other}
	if tile != nil && st.pat == nil {
		prob.Other = nil
	}
	for lo < hi {
		end, base := hi, 0
		if tile != nil {
			end, base = batchEnd(lo, hi, perEntry, batchEvents, ptr), ptr[lo]
			cl = st.loadTile(tile, sd, lo, end)
		}
		var costSum, interior int64
		for k := lo; k < end; k++ {
			s, e := ptr[k]-base, ptr[k+1]-base
			prob.C, prob.A = cl.x0[s:e], cl.a[s:e]
			if cl.idx != nil {
				prob.Idx = cl.idx[s:e]
			}
			if cl.up != nil {
				prob.U = cl.up[s:e]
			}
			if cl.lo != nil {
				prob.L = cl.lo[s:e]
			}
			var est *equilibrate.State
			if states != nil {
				est = &states[k]
			}
			var res equilibrate.Result
			var err error
			if ilo != nil {
				res, err = kern.SolveInterval(&prob, ilo[k], ihi[k], cl.x[s:e], est)
			} else {
				prob.R, prob.E = sd.target(k)
				res, err = kern.Solve(&prob, cl.x[s:e], est)
			}
			if err != nil {
				st.fail(chunk, sd, k, err)
				return false
			}
			if res.Interior {
				interior++
			}
			st.land(sd, relaxed, k, res.Lambda)
			total[k] = res.Total
			cost := res.Ops + int64(2*(e-s))
			costSum += cost
			if costs != nil {
				costs[k] = cost
			}
		}
		if tile != nil {
			st.storeTile(tile, sd, lo, end)
		}
		tl.equil += int64(end - lo)
		tl.interior += interior
		tl.ops += costSum
		lo = end
	}
	return true
}

// streamColumns is the column phase body for one worker's columns [lo,hi)
// of a dense problem with neither cell bounds nor interval totals. It tries
// every column's interior root in two passes over the rows in storage
// order, so no column is gathered into a tile:
//
//   - pass 1 sums each column's coefficients c = x⁰ + a·λ and slopes a into
//     four lanes by row index mod 4 — the lanes, and the order within each,
//     of the kernel's interior attempt on the gathered column — and each
//     column's root then comes from equilibrate.UnboundedRoot, which also
//     applies the kernel's checks before the attempt;
//   - pass 2 writes x = c + a·μ° in place, summing each column's total in
//     row order and counting its cells above 0; a cell that fails
//     equilibrate.InteriorTerm marks its column's total NaN.
//
// A column whose root, cells or total (equilibrate.InteriorTotal) fail goes
// to the kernel through the batch tile (phaseChunk), a run of consecutive
// such columns at a time, and overwrites whatever pass 2 wrote. The others
// take the kernel's interior result bit for bit — multiplier, total, and
// operation charge — so outputs, tallies, task costs, warm-start states
// (which an interior solve leaves untouched) and the first failing column's
// error do not depend on the route. The lane order is the one rule of the
// kernel's kept here; a drift in it changes nearly every column's root bits,
// which TestStreamColumnsMatchTileRoute compares.
func (st *diagState) streamColumns(chunk, lo, hi int) {
	sd := &st.cols
	m, n, w := st.m, st.n, hi-lo
	tile := &st.tiles[chunk]
	tile.sums, tile.seg = resizeF(tile.sums, 10*w), resizeI(tile.seg, w)
	lanes, root, tot, seg := tile.sums[:8*w], tile.sums[8*w:9*w], tile.sums[9*w:10*w], tile.seg[:w]
	clear(lanes)
	clear(tot)
	clear(seg)
	other, x0s, as := sd.other, sd.x0, sd.a
	for i := 0; i < m; i++ {
		li := other[i]
		r := i*n + lo
		x0, a := x0s[r:r+w], as[r:r+w]
		lc, la := lanes[(i&3)*w:][:w], lanes[(4+i&3)*w:][:w]
		for j, v := range a {
			lc[j] += x0[j] + v*li
			la[j] += v
		}
	}
	for j := range root {
		t, e := sd.target(lo + j)
		sc := equilibrate.LaneSum(lanes[j], lanes[w+j], lanes[2*w+j], lanes[3*w+j])
		sa := equilibrate.LaneSum(lanes[4*w+j], lanes[5*w+j], lanes[6*w+j], lanes[7*w+j])
		mu, ok := equilibrate.UnboundedRoot(e, t, sc, sa)
		if !ok {
			mu = math.NaN()
		}
		root[j] = mu
	}
	nan := math.NaN()
	for i := 0; i < m; i++ {
		li := other[i]
		r := i*n + lo
		x0, a, x := x0s[r:r+w], as[r:r+w], st.x[r:r+w]
		for j, v := range a {
			y := (x0[j] + v*li) + v*root[j]
			x[j] = y
			tot[j] += y
			if y > 0 {
				seg[j]++
			}
			if !equilibrate.InteriorTerm(y, v) {
				tot[j] = nan
			}
		}
	}

	relaxed := st.relaxed(sd)
	total, costs := sd.total, sd.costs
	tl := &st.tallies[chunk]
	var done, ops int64
	for j := 0; j < w; {
		if !equilibrate.InteriorTotal(tot[j]) {
			e := j + 1
			for e < w && !equilibrate.InteriorTotal(tot[e]) {
				e++
			}
			if !st.phaseChunk(sd, chunk, lo+j, lo+e) {
				return
			}
			j = e
			continue
		}
		k := lo + j
		st.land(sd, relaxed, k, root[j])
		total[k] = tot[j]
		cost := equilibrate.InteriorOps(m, seg[j], m) + int64(2*m)
		ops += cost
		if costs != nil {
			costs[k] = cost
		}
		done++
		j++
	}
	tl.equil += done
	tl.interior += done
	tl.ops += ops
}

// target returns subproblem k's kernel target R and elastic slope E: the
// side's total, less E times the opposite multiplier for a balanced
// problem, with E = 1/(2w) for estimated totals and 0 for fixed ones.
func (sd *side) target(k int) (r, e float64) {
	r = sd.r[k]
	if sd.w != nil {
		e = 0.5 / sd.w[k]
		if sd.balanced {
			r = sd.r[k] - e*sd.other[k]
		}
	}
	return r, e
}

// relaxed returns μ̃ when sd is the column side and the ω rule has engaged
// (see run), else nil.
func (st *diagState) relaxed(sd *side) []float64 {
	if sd == &st.cols && len(st.relaxSlab) != 0 {
		return st.relaxSlab[:st.n]
	}
	return nil
}

// land writes subproblem k's kernel multiplier λ̂: into mult as
// mult + ω(λ̂ − mult), or, with relaxed (μ̃) at hand, into mult as is and
// into relaxed as μ̃ + ω(λ̂ − μ̃).
func (st *diagState) land(sd *side, relaxed []float64, k int, lambda float64) {
	if relaxed != nil {
		sd.mult[k] = lambda
		relaxed[k] = scale.Relax(relaxed[k], lambda, st.omega)
	} else {
		sd.mult[k] = scale.Relax(sd.mult[k], lambda, st.omega)
	}
}

// fail records a worker's first error, attributed to subproblem k of sd.
func (st *diagState) fail(chunk int, sd *side, k int, err error) {
	if st.errs[chunk] == nil {
		name := "row"
		if sd == &st.cols {
			name = "column"
		}
		st.errs[chunk] = fmt.Errorf("%s %d: %w", name, k, err)
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

	// Duals that left the finite range have diverged, under any criterion;
	// the NaN residual stops the solve (see run).
	if !allFinite(st.lambda) || !allFinite(st.mu) {
		st.residual = math.NaN()
		return false
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
			if r > worst || r != r {
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
	obj, z := p.cellSums(st.x, st.lambda, st.mu, st.aRow)
	sol.Objective = p.addTotalsPenalty(obj, s, d)
	sol.DualValue = p.addTotalsDual(z, st.lambda, st.mu)
	return sol
}
