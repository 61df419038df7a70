package sched

import (
	"bytes"
	"testing"
)

// FuzzDecodeEntry holds the result-entry decoder — the gate between a
// cache directory or an upstream hub and a sweep's numbers — to its
// contract on arbitrary bytes: an error, or an entry whose key hashes
// to the address asked for, whose result matches its checksum, and
// which re-encodes to bytes that decode to the same entry.  Never a
// panic, never an entry accepted under another address.
func FuzzDecodeEntry(f *testing.F) {
	good, err := encodeEntry(baseJob().Key(), wantReport())
	if err != nil {
		f.Fatal(err)
	}
	hash := baseJob().Hash()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(bytes.Replace(good, []byte(`"Cycles": 1234`), []byte(`"Cycles": 4321`), 1))
	f.Add([]byte(`{"key":{},"sha256":"","result":{}}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := decodeEntry(b, hash)
		if verr := EntryKind.Verify(hash, b); (verr == nil) != (err == nil) {
			t.Fatalf("EntryKind.Verify = %v but decodeEntry = %v", verr, err)
		}
		if err != nil {
			return
		}
		if e.Key != baseJob().Key() {
			t.Fatalf("accepted an entry for another key under %s: %+v", hash, e.Key)
		}
		if sum, err := resultSum(e.Result); err != nil || sum != e.SHA256 {
			t.Fatalf("accepted a result that does not match its checksum")
		}
		again, err := encodeEntry(e.Key, e.Result)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := decodeEntry(again, hash)
		if err != nil || e2 != e {
			t.Fatalf("re-encoded entry decodes to %+v, %v; want %+v", e2, err, e)
		}
		other := baseJob()
		other.Seed = 99
		if _, err := decodeEntry(b, other.Hash()); err == nil {
			t.Fatal("the same bytes were accepted under a second address")
		}
	})
}
