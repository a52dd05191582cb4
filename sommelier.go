// Package sommelier is a from-scratch Go reproduction of "Sommelier:
// Curating DNN Models for the Masses" (SIGMOD 2022): an indexing and
// query system layered over bare-bone DNN model repositories.
//
// The Engine interposes between a model repository and applications
// (Figure 1 of the paper). Models registered with the engine are analyzed
// for pairwise functional equivalence (internal/equiv, §4), profiled for
// resource usage (internal/resource, §5.3), and organized into a semantic
// index (internal/index, §5.2) and a resource-profile table, both held
// once, in the immutable snapshot internal/catalog publishes. Queries in
// the Figure 7 syntax are parsed (internal/query) and executed as a
// three-stage filter pipeline (§5.4): semantic filter → resource filter →
// final selection — every stage reading one consistent snapshot, with no
// locking against concurrent registration.
//
// A minimal session:
//
//	store := repo.NewInMemory()
//	eng, _ := sommelier.NewEngine(store, sommelier.WithSeed(7))
//	id, _ := eng.RegisterContext(ctx, model)
//	results, _ := eng.QueryContext(ctx, `SELECT CORR "`+id+`" WITHIN 90% ON memory <= 80% PICK most_similar`)
//
// The API is context-first: every entry point that can block — query,
// register, index — takes a ctx whose cancellation aborts the work,
// including the indexing worker pool mid-batch. The engine observes
// itself through internal/obs (see Engine.Observer): per-stage index
// and query timings, spans, and worker occupancy, exported as one JSON
// snapshot.
//
// The Engine itself is a thin facade: engine.go holds construction and
// accessors (options.go the functional options), register.go the write
// path (publish + staged indexing), querying.go the read path.
package sommelier

import "sommelier/internal/query"

// Result is one model returned by a query (see query.Result): the same
// type a hub answers on the wire and a cluster coordinator merges.
type Result = query.Result
