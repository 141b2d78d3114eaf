package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// referencePath is where --record writes, relative to the repository
// root the benchmark runs from.
const referencePath = "hostbench/reference.json"

//go:embed reference.json
var referenceJSON []byte

// references holds, per workload, the digest of every row at each
// recorded seed: the hash of every simulated figure of a simulation
// (see digestRun) or of a served response body. The simulator is
// deterministic, so a recorded seed's rows must come out
// digest-identical at every commit that leaves the simulated model
// alone. The references were recorded on amd64; architectures where
// the compiler fuses multiply-adds may round differently.
type references map[string]workloadRef

// workloadRef is one workload's recorded rows: the row keys in run
// order, and per seed the rows' digests, space-separated in that order.
type workloadRef struct {
	Rows  []string          `json:"rows"`
	Seeds map[string]string `json:"seeds"`
}

// row is one checked outcome: its key and digest.
type row struct {
	key, digest string
}

// digest is the short hash the references store: 32 bits of SHA-256,
// plenty to tell a changed row from an unchanged one.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:4])
}

func parseReferences(raw []byte) (references, error) {
	refs := references{}
	if err := json.Unmarshal(raw, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", referencePath, err)
	}
	return refs, nil
}

// rowChecker compares each row's digest with the recorded reference
// for the run's seed. For a seed with no recorded reference, the first
// digest seen for a key becomes the reference, so every repetition of
// that row must still reproduce it exactly.
type rowChecker struct {
	recorded map[string]string
	seen     map[string]string
}

func newRowChecker(refs references, wl string, seed uint64) *rowChecker {
	rc := &rowChecker{seen: map[string]string{}}
	ref := refs[wl]
	if ds, ok := ref.Seeds[strconv.FormatUint(seed, 10)]; ok {
		rc.recorded = map[string]string{}
		for i, d := range strings.Fields(ds) {
			if i < len(ref.Rows) {
				rc.recorded[ref.Rows[i]] = d
			}
		}
	}
	return rc
}

// hasRecorded reports whether the seed has a recorded reference.
func (rc *rowChecker) hasRecorded() bool { return rc.recorded != nil }

// match reports an error when digest is not the reference for key.
func (rc *rowChecker) match(key, digest string) error {
	if rc.hasRecorded() {
		want, ok := rc.recorded[key]
		switch {
		case !ok:
			return fmt.Errorf("%s: no recorded reference for this row", key)
		case digest != want:
			return fmt.Errorf("%s: digest %s, recorded reference %s", key, digest, want)
		}
		return nil
	}
	if want, ok := rc.seen[key]; ok && digest != want {
		return fmt.Errorf("%s: digest %s, earlier repetition %s", key, digest, want)
	}
	rc.seen[key] = digest
	return nil
}

// recordReference stores rows as the reference for (wl, seed) in the
// reference file. If the workload's row keys changed, its other seeds'
// references no longer apply and are dropped.
func recordReference(wl string, seed uint64, rows []row) error {
	raw, err := os.ReadFile(referencePath)
	if err != nil {
		return err
	}
	refs, err := parseReferences(raw)
	if err != nil {
		return err
	}
	keys := make([]string, len(rows))
	ds := make([]string, len(rows))
	for i, r := range rows {
		keys[i], ds[i] = r.key, r.digest
	}
	ref := refs[wl]
	if !slices.Equal(ref.Rows, keys) {
		ref = workloadRef{Rows: keys}
	}
	if ref.Seeds == nil {
		ref.Seeds = map[string]string{}
	}
	ref.Seeds[strconv.FormatUint(seed, 10)] = strings.Join(ds, " ")
	refs[wl] = ref
	out, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(out, '\n'), 0o644)
}
