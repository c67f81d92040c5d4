package stripe

import "testing"

func TestTableGetPut(t *testing.T) {
	var tb Table[uint64, int]
	if _, ok := tb.Get(0); ok {
		t.Fatal("empty table holds the zero key")
	}
	if _, ok := tb.Get(5); ok {
		t.Fatal("empty table holds key 5")
	}
	const n = 5000 // several growths past the first 64 slots
	for k := uint64(0); k < n; k++ {
		tb.Put(k, int(k)*3)
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := tb.Get(k); !ok || v != int(k)*3 {
			t.Fatalf("Get(%d) = %d, %v; want %d", k, v, ok, k*3)
		}
	}
	if _, ok := tb.Get(n); ok {
		t.Fatalf("absent key %d found", n)
	}
	if 2*tb.Len() > len(tb.slots)+1 {
		t.Fatalf("%d keys in %d slots: more than half full", tb.Len(), len(tb.slots))
	}
}

func TestWordsGetPut(t *testing.T) {
	var w Words
	if _, ok := w.Get(5); ok {
		t.Fatal("empty view holds key 5")
	}
	const n = 5000 // several growths past the first 64 slots
	for k := uint64(1); k <= n; k++ {
		w.Put(k, k*3)
	}
	if w.Len() != n {
		t.Fatalf("Len = %d, want %d", w.Len(), n)
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := w.Get(k); !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d, %v; want %d", k, v, ok, k*3)
		}
	}
	if _, ok := w.Get(n + 1); ok {
		t.Fatalf("absent key %d found", n+1)
	}
	if s := w.slots.Load(); 2*w.Len() > len(s.at) {
		t.Fatalf("%d keys in %d slots: more than half full", w.Len(), len(s.at))
	}
}
