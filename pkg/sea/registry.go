package sea

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Solver is the unified interface every algorithm in the registry satisfies.
// Solve must honour ctx: when the context is cancelled it returns promptly
// (within one outer iteration) with ctx.Err(), alongside the last consistent
// iterate when one exists. opts may be nil, meaning DefaultOptions.
type Solver interface {
	// Name is the registry key, e.g. "sea" or "rc".
	Name() string
	// Description is a one-line summary for listings and usage messages.
	Description() string
	// Solve runs the algorithm on p.
	Solve(ctx context.Context, p *Problem, opts *Options) (*Solution, error)
}

// funcSolver adapts a function to the Solver interface.
type funcSolver struct {
	name, desc string
	fn         func(context.Context, *Problem, *Options) (*Solution, error)
}

func (s funcSolver) Name() string        { return s.name }
func (s funcSolver) Description() string { return s.desc }
func (s funcSolver) Solve(ctx context.Context, p *Problem, o *Options) (*Solution, error) {
	sol, err := s.fn(ctx, p, o)
	finalizeStatus(sol, err)
	return sol, err
}

// finalizeStatus stamps the explicit outcome onto a solution whose producer
// left it unclassified, so every registry solve returns a Status without
// each algorithm needing to know the protocol. Solutions that already carry
// a status (custom solvers, the serving layer) are left alone.
func finalizeStatus(sol *Solution, err error) {
	if sol == nil || sol.Status != StatusUnknown {
		return
	}
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		sol.Status = StatusCancelled
	case errors.Is(err, ErrDiverged):
		sol.Status = StatusDiverged
	case errors.Is(err, ErrNotConverged):
		sol.Status = StatusMaxIterations
	case err == nil && sol.Converged:
		sol.Status = StatusConverged
	}
}

// NewSolver wraps a plain function as a registrable Solver.
func NewSolver(name, description string, fn func(context.Context, *Problem, *Options) (*Solution, error)) Solver {
	return funcSolver{name: name, desc: description, fn: fn}
}

var registry = struct {
	sync.RWMutex
	byName map[string]Solver
}{byName: make(map[string]Solver)}

// Register adds a solver under its name. Registering an empty name or a name
// already taken is an error; the built-in solvers claim theirs at init.
func Register(s Solver) error {
	name := s.Name()
	if name == "" {
		return fmt.Errorf("sea: cannot register a solver with an empty name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[name]; dup {
		return fmt.Errorf("sea: solver %q already registered", name)
	}
	registry.byName[name] = s
	return nil
}

// MustRegister is Register, panicking on error. It is intended for
// package-init registration of a program's own solvers.
func MustRegister(s Solver) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Get returns the named solver. The error for an unknown name lists the
// registered ones.
func Get(name string) (Solver, error) {
	registry.RLock()
	s, ok := registry.byName[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %s)", ErrUnknownSolver, name, strings.Join(Solvers(), ", "))
	}
	return s, nil
}

// Solvers returns the registered solver names, sorted.
func Solvers() []string {
	registry.RLock()
	names := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		names = append(names, name)
	}
	registry.RUnlock()
	sort.Strings(names)
	return names
}

// Describe returns the named solver's one-line description ("" if unknown).
func Describe(name string) string {
	registry.RLock()
	defer registry.RUnlock()
	if s, ok := registry.byName[name]; ok {
		return s.Description()
	}
	return ""
}

// Solve looks up the named solver and runs it — the facade's front door.
func Solve(ctx context.Context, name string, p *Problem, opts *Options) (*Solution, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	return s.Solve(ctx, p, opts)
}
