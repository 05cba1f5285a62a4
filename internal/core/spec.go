package core

import (
	"fmt"
	"math/rand"
	"sort"

	"hilight/internal/order"
	"hilight/internal/place"
	"hilight/internal/route"
)

// Spec is a declarative description of a compile method: every component
// is named, and the names are resolved against the package registries
// when a Pipeline is built. Zero-value fields select the HiLight
// defaults, so Spec{} is exactly the paper's "hilight-map" stack.
//
// Specs are plain values: experiment harnesses copy a registered method
// spec and override one field to build an ablation arm, with no seeded
// state captured until the pipeline materializes the components.
type Spec struct {
	// Method is the registry name this spec was registered under; it is
	// set by RegisterMethod and carried into Result.Method.
	Method string
	// Placement names an initial-placement factory ("" = "hilight").
	Placement string
	// Ordering names a gate-ordering factory ("" = "proposed").
	Ordering string
	// Finder names a path-finder factory ("" = "astar-closest").
	Finder string
	// Adjuster names an in-routing layout adjuster ("" = none).
	Adjuster string
	// QCO enables the program-level optimization pass (§3.3).
	QCO bool
	// OrderingThreshold invokes Ordering only when the ready set is
	// strictly larger; ≤0 means DefaultOrderingThreshold.
	OrderingThreshold int
	// Speculative routes each dependency layer with the speculative step
	// (the route-parallel pass) instead of the sequential one, when the
	// finder and adjuster allow it (see parallelCompatible).
	Speculative bool
}

// Component registries. Factories take the pipeline's seeded rng so
// randomized components (pattern-matched layouts, random ordering) draw
// from the same stream regardless of which method references them.
var (
	placementReg = map[string]func(*rand.Rand) place.Method{}
	orderingReg  = map[string]func(*rand.Rand) order.Strategy{}
	finderReg    = map[string]func() route.Finder{}
	adjusterReg  = map[string]func() LayoutAdjuster{}
	methodReg    = map[string]Spec{}
)

func register[T any](reg map[string]T, kind, name string, v T) {
	if name == "" {
		panic("core: empty " + kind + " name")
	}
	if _, dup := reg[name]; dup {
		panic(fmt.Sprintf("core: duplicate %s %q", kind, name))
	}
	reg[name] = v
}

// RegisterPlacement adds a named initial-placement factory. Duplicate
// names panic: registration happens in package init, where a collision
// is a programming error.
func RegisterPlacement(name string, mk func(*rand.Rand) place.Method) {
	register(placementReg, "placement", name, mk)
}

// RegisterOrdering adds a named gate-ordering factory.
func RegisterOrdering(name string, mk func(*rand.Rand) order.Strategy) {
	register(orderingReg, "ordering", name, mk)
}

// RegisterFinder adds a named path-finder factory.
func RegisterFinder(name string, mk func() route.Finder) {
	register(finderReg, "finder", name, mk)
}

// RegisterAdjuster adds a named layout-adjuster factory.
func RegisterAdjuster(name string, mk func() LayoutAdjuster) {
	register(adjusterReg, "adjuster", name, mk)
}

// RegisterMethod adds a named method spec to the static registry. The
// spec's Method field is overwritten with the registered name.
func RegisterMethod(name string, sp Spec) {
	sp.Method = name
	register(methodReg, "method", name, sp)
}

// LookupMethod returns the registered spec for name.
func LookupMethod(name string) (Spec, bool) {
	sp, ok := methodReg[name]
	return sp, ok
}

// MustMethod returns the registered spec for name, panicking when the
// name is unknown — for tests and harness tables of known-good names.
func MustMethod(name string) Spec {
	sp, ok := methodReg[name]
	if !ok {
		panic(fmt.Sprintf("core: unknown method %q", name))
	}
	return sp
}

// MethodNames lists the registered method names, sorted. Enumeration
// reads the static registry only: no component (and no seeded rng) is
// instantiated.
func MethodNames() []string {
	names := make([]string, 0, len(methodReg))
	for name := range methodReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// components resolves the spec's names into component instances. rng
// must be non-nil; it is shared by every randomized component exactly
// like the pre-pipeline Config constructors shared one seeded stream.
func (sp Spec) components(rng *rand.Rand) (config, error) {
	var cfg config
	pname := sp.Placement
	if pname == "" {
		pname = "hilight"
	}
	mkPlace, ok := placementReg[pname]
	if !ok {
		return cfg, fmt.Errorf("core: unknown placement %q", pname)
	}
	oname := sp.Ordering
	if oname == "" {
		oname = "proposed"
	}
	mkOrder, ok := orderingReg[oname]
	if !ok {
		return cfg, fmt.Errorf("core: unknown ordering %q", oname)
	}
	fname := sp.Finder
	if fname == "" {
		fname = "astar-closest"
	}
	mkFinder, ok := finderReg[fname]
	if !ok {
		return cfg, fmt.Errorf("core: unknown finder %q", fname)
	}
	cfg.Placement = mkPlace(rng)
	cfg.Ordering = mkOrder(rng)
	cfg.Finder = mkFinder()
	cfg.FinderName = fname
	if sp.Adjuster != "" {
		mkAdj, ok := adjusterReg[sp.Adjuster]
		if !ok {
			return cfg, fmt.Errorf("core: unknown adjuster %q", sp.Adjuster)
		}
		cfg.Adjuster = mkAdj()
	}
	cfg.QCO = sp.QCO
	cfg.OrderingThreshold = sp.OrderingThreshold
	if cfg.OrderingThreshold <= 0 {
		cfg.OrderingThreshold = DefaultOrderingThreshold
	}
	return cfg, nil
}

// Built-in components. The registry keys are the components' own Name()
// strings, so a finder resolved from a schedule or an ablation table row
// round-trips through the registry.
func init() {
	RegisterPlacement("identity", func(*rand.Rand) place.Method { return place.Identity{} })
	RegisterPlacement("random", func(rng *rand.Rand) place.Method { return place.Random{Rng: rng} })
	RegisterPlacement("proximity", func(*rand.Rand) place.Method { return place.Proximity{} })
	RegisterPlacement("gm", func(rng *rand.Rand) place.Method { return place.GM{Rng: rng} })
	RegisterPlacement("gmwp", func(rng *rand.Rand) place.Method { return place.GMWP{Rng: rng} })
	RegisterPlacement("hilight", func(rng *rand.Rand) place.Method { return place.HiLight{Rng: rng} })
	RegisterPlacement("hilight+refine", func(rng *rand.Rand) place.Method {
		return place.Refined{Base: place.HiLight{Rng: rng}}
	})

	RegisterOrdering("proposed", func(*rand.Rand) order.Strategy { return order.Proposed{} })
	RegisterOrdering("ascending", func(*rand.Rand) order.Strategy { return order.Ascending{} })
	RegisterOrdering("descending", func(*rand.Rand) order.Strategy { return order.Descending{} })
	RegisterOrdering("random", func(rng *rand.Rand) order.Strategy { return order.Random{Rng: rng} })
	RegisterOrdering("llg", func(*rand.Rand) order.Strategy { return order.LLG{} })
	RegisterOrdering("critical-path", func(*rand.Rand) order.Strategy { return order.CriticalPath{} })

	RegisterFinder("astar-closest", func() route.Finder { return &route.AStar{} })
	RegisterFinder("full-16", func() route.Finder { return &route.Full16{} })
	RegisterFinder("stack-dfs", func() route.Finder { return &route.StackDFS{} })
	RegisterFinder("l-shape", func() route.Finder { return route.LShape{} })
}
