package scenario

import (
	"encoding/json"

	"repro/internal/resultcache"
)

// The Merkle run ledger: a run's full result set hashes into a Merkle
// tree whose root is one content address for the whole run. Equal roots
// mean point-for-point identical results (the serve daemon surfaces the
// root in job status, so "did the resubmit reproduce?" is one string
// comparison).

// MerkleRoot returns the hex root of the ledger tree over the results, in
// their deterministic sweep order. Each leaf is json.Marshal of the whole
// Result (every field, omitempty tags), not the bytes Render's json
// format prints: those are a per-kind projection with zeros kept, in
// their own key order.
func MerkleRoot(results []Result) string {
	leaves := make([][]byte, len(results))
	for i, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			// A Result is a flat struct of scalars; Marshal fails only on a
			// NaN or infinite float, which no measurement produces.
			panic("scenario: marshaling result row: " + err.Error())
		}
		leaves[i] = b
	}
	return resultcache.NewTree(leaves).Root().String()
}
