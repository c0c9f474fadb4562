// Package lint is the project's static-analysis suite: nine analyzers
// built on go/parser, go/ast and go/types alone (dependencies are
// resolved from `go list -export` compiler export data, so go.mod
// stays zero-dependency), driven by cmd/vup-lint. Five rules are
// per-node AST checks; four (pinleak, lockhold, ctxwait, deferinloop)
// are flow-aware, built on the intraprocedural CFG and worklist
// dataflow engine in cfg.go and dataflow.go.
//
// Every rule is grounded in a bug class this repository has actually
// hit or structurally risks, and moves an invariant that was enforced
// by after-the-fact golden tests into build-time enforcement:
//
//   - determinism: the figure pipeline must be byte-identical across
//     runs and worker counts (PR 2's TestDeterminismAcrossWorkers, PR
//     4's 48-case golden suite). Wall-clock reads (time.Now), raw
//     math/rand, and a shared *randx.RNG captured by a parallel worker
//     closure each break that silently — the last one only under
//     scheduler-dependent interleavings, which no golden test can
//     reliably catch. Scope: internal/{core, experiments, fleet,
//     featsel, regress, stats}.
//
//   - floatsafety: PR 3 shipped a fix for summarize emitting NaN into
//     JSON on an empty dataset — encoding/json fails with
//     UnsupportedValueError at request time, long after the bad value
//     was computed. The rule flags exact float ==/!=, float map keys,
//     and float quotients reaching a JSON encoder in functions with no
//     math.IsNaN guard, so that class is caught at lint time.
//
//   - errdiscipline: PR 3 also had to retrofit error counting onto
//     writeJSON because Encode failures after the header was sent
//     vanished. A call statement that discards a trailing error is
//     flagged; `_ =` assignment, defer/go statements, fmt.Print* to
//     stdout, and writes into strings.Builder/bytes.Buffer are
//     deliberately exempt. One deferred shape IS flagged: `defer
//     f.Close()` on a file the function opened for writing (os.Create,
//     or os.OpenFile with write flags) with no explicit Close anywhere
//     else — Close flushes the final write, so the bare defer is where
//     a short write vanishes. An explicit success-path Close (the
//     defer then backstops early returns only) or a deferred closure
//     capturing the error silences it.
//
//   - metricnames: obs.Registry panics at init when a name is
//     re-registered with a different shape, and Prometheus tooling
//     assumes the _total/_seconds/_entries/_in_flight/_bytes/_vehicles
//     suffix grammar.
//     Names must be compile-time constants matching the convention and
//     be registered at exactly one site process-wide.
//
//   - printhygiene: library output must flow through obs.Logger or
//     return values — a stray fmt.Print in a library corrupts the
//     byte-exact stdout the experiment binaries are diffed on.
//     cmd/, examples/ (package main) and internal/textplot are exempt.
//
//   - pinleak (flow): every release func handed out by
//     (*server.Store).Acquire, and every span from trace.Start or
//     Collector.StartTrace, must reach its release()/End() on every
//     path out of the acquiring function — a leaked pin permanently
//     defeats -resident-budget eviction; a leaked span vanishes from
//     its trace. Branch refinement understands `if err != nil` (the
//     creator returned no handle on the failure path) and `if release
//     != nil` guards. Discarding the handle outright (`_`) is flagged
//     immediately.
//
//   - lockhold (flow): no blocking operation — known-blocking stdlib
//     and repo IO (os.File methods, fstore.Dir, server.Store faulting
//     paths), channel send/receive, a select with no default, a call
//     through a func value, or a same-package helper that transitively
//     blocks — while a sync.RWMutex is held. This is the PR 8
//     Store.Put fsync-under-lock incident as a rule. Scoped to
//     RWMutex: in this codebase an RWMutex marks a read-serving lock
//     whose holder stalls the fleet, while a plain Mutex (fstore.Dir)
//     deliberately serializes writers around IO.
//
//   - ctxwait: in internal/server, a select or bare receive/send on a
//     signal channel (chan struct{} — flight.done, leader handoffs,
//     semaphore slots) must carry a ctx.Done() case or a default. The
//     PR 8 coalescing incident as a rule: a canceled request kept
//     blocking on a forecast build it no longer wanted.
//
//   - deferinloop: defer of a release-shaped call (a niladic func
//     value, Unlock/RUnlock, Close, End) inside a loop body runs at
//     function return, not per iteration — on the /v1/vehicles sweep
//     shape that pins the whole fleet at once.
//
// # The CFG engine: scope and limits
//
// cfg.go builds one control-flow graph per function body (function
// literals are separate units), with basic blocks of statement-level
// nodes and branch/loop/switch/select/goto/label/panic-aware edges;
// dataflow.go runs a worklist fixpoint over uint64 bitset states with
// union merges — a "may" analysis — plus optional branch-condition
// refinement on edges. Its limits are deliberate, and shared by every
// flow rule:
//
//   - Intraprocedural only. No cross-function path tracking: lockhold
//     summarizes same-package callees (one level of "does this helper
//     block?"), pinleak does not follow a handle into another
//     function at all.
//
//   - Escape means trust. A pinleak handle that is returned, stored,
//     passed as an argument, or captured by a closure escapes the
//     unit, and the obligation is conservatively dropped (the same
//     stance as go vet's lostcancel) — so a handed-off release func is
//     the caller's responsibility, silently.
//
//   - Defers are position-insensitive. `defer release()` discharges
//     the obligation where the defer statement executes, which is
//     sound for pairing but means an overwrite of the handle variable
//     after the defer is not caught. lockhold skips defer and go
//     statement bodies entirely: a deferred Unlock's ordering at
//     function exit is not judgeable path-insensitively.
//
//   - Reachability is syntactic. `if false { ... }` branches and
//     other constant conditions are considered reachable; panic,
//     os.Exit, runtime.Goexit, log.Fatal* and an empty select{}
//     terminate a path.
//
// Suppression is per-line and must be justified:
//
//	//lint:allow <rule> <reason>
//
// placed trailing the flagged line or on the line directly above. A
// directive with no reason, or one that suppresses nothing, is itself
// a diagnostic — suppressions cannot rot silently.
package lint
