package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// keySchema versions the trace content address; bump it when the
// meaning of a key field changes.  Schema 2 dropped the predictor from
// the key: traces are predictor-agnostic as of format version 2.
const keySchema = 2

// Key is the content identity of a trace: everything the dynamic
// instruction stream and its annotations depend on — and nothing the
// timing sweep varies.  Cells differing only in FXU count, BTAC sizing,
// predictor choice or pipeline penalties share one Key, which is the
// entire point.
type Key struct {
	App      string
	Variant  string
	Seed     int64
	Scale    int
	ProgHash string
}

// KeyFromMeta reconstructs the content key a trace answers.  Every Key
// field is stored in the file's meta, which is what lets a remote tier
// verify an uploaded trace against the address it claims: decode,
// rebuild the key, hash, compare.
func KeyFromMeta(m Meta) Key {
	return Key{
		App:      m.App,
		Variant:  m.Variant,
		Seed:     m.Seed,
		Scale:    m.Scale,
		ProgHash: m.ProgHash,
	}
}

// Matches reports whether a trace's meta answers this key.
func (k Key) Matches(m Meta) bool {
	return m.App == k.App && m.Variant == k.Variant && m.Seed == k.Seed &&
		m.Scale == k.Scale && m.ProgHash == k.ProgHash
}

// Hash returns the key's content address: the hex SHA-256 of its
// canonical JSON encoding.
func (k Key) Hash() string {
	b, err := json.Marshal(struct {
		Schema int `json:"schema"`
		Key
	}{Schema: keySchema, Key: k})
	if err != nil {
		panic(fmt.Sprintf("trace: marshal key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
