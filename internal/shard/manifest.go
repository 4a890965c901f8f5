package shard

import (
	"encoding/json"
	"fmt"
	"os"
)

// Manifest is the shards.json document describing a range-partitioned
// dataset on disk: cmd/irgen -shards writes it next to the shard-<i>/
// directories, and cmd/irproxy -shard-map loads it to build the
// coordinator's Map (docs/sharding.md).
type Manifest struct {
	Shards int   `json:"shards"`
	N      int   `json:"n"`
	M      int   `json:"m"`
	Bases  []int `json:"bases"`
}

// Map validates the manifest's partition and returns it as a Map.
func (mf Manifest) Map() (Map, error) {
	if len(mf.Bases) != mf.Shards {
		return Map{}, fmt.Errorf("shard: manifest lists %d bases for %d shards", len(mf.Bases), mf.Shards)
	}
	return NewMap(mf.Bases)
}

// WriteManifest writes the manifest as indented JSON.
func WriteManifest(path string, mf Manifest) error {
	raw, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// LoadManifest reads and validates a shards.json: a partition of N ≥ 0
// tuples over M ≥ 0 dimensions whose last base is at most N.
func LoadManifest(path string) (Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var mf Manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return Manifest{}, fmt.Errorf("shard: %s: %w", path, err)
	}
	if mf.N < 0 || mf.M < 0 {
		return Manifest{}, fmt.Errorf("shard: %s claims n=%d, m=%d", path, mf.N, mf.M)
	}
	if _, err := mf.Map(); err != nil {
		return Manifest{}, fmt.Errorf("shard: %s: %w", path, err)
	}
	if last := mf.Bases[len(mf.Bases)-1]; last > mf.N {
		return Manifest{}, fmt.Errorf("shard: %s: last base %d is past its %d tuples", path, last, mf.N)
	}
	return mf, nil
}
