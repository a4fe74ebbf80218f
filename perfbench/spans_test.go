package main

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"obfuscade/internal/cache"
)

type mapStore struct {
	m      map[cache.Key][]byte
	putErr error
}

func (s *mapStore) Get(_ context.Context, key cache.Key) ([]byte, bool) {
	b, ok := s.m[key]
	return b, ok
}

func (s *mapStore) Put(_ context.Context, key cache.Key, data []byte) error {
	if s.putErr != nil {
		return s.putErr
	}
	s.m[key] = data
	return nil
}

func TestTimingStorePassesThrough(t *testing.T) {
	ctx := context.Background()
	inner := &mapStore{m: map[cache.Key][]byte{}}
	ts := &timingStore{inner: inner}
	if data, ok := ts.Get(ctx, "absent"); ok || data != nil {
		t.Fatalf("miss came back as %q, %v", data, ok)
	}
	payload := []byte("frame bytes")
	if err := ts.Put(ctx, "k", payload); err != nil {
		t.Fatal(err)
	}
	data, ok := ts.Get(ctx, "k")
	if !ok || !bytes.Equal(data, payload) {
		t.Fatalf("hit came back as %q, %v", data, ok)
	}
	boom := errors.New("disk full")
	inner.putErr = boom
	if err := ts.Put(ctx, "k2", payload); !errors.Is(err, boom) {
		t.Fatalf("Put error %v, want the inner store's", err)
	}
	if len(ts.gets) != 2 || len(ts.puts) != 2 || ts.putBytes != 2*int64(len(payload)) {
		t.Fatalf("recorded %d gets, %d puts, %d bytes", len(ts.gets), len(ts.puts), ts.putBytes)
	}
}
