// Package parallel provides the shared-memory task-allocation substrate for
// the row and column equilibration phases: a persistent worker pool running
// a chunked parallel-for over independent subproblems, the Go analogue of the
// paper's Parallel FORTRAN task constructs on the IBM 3090-600E.
//
// All scheduling here is deterministic in its *results*: workers write only
// to disjoint index ranges, so the output is bit-identical for any worker
// count. Only timing varies with P.
package parallel
