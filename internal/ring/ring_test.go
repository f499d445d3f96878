package ring

import (
	"math/rand"
	"testing"
)

func TestPushPopWraparound(t *testing.T) {
	var b Buffer[int]
	if _, ok := b.Pop(); ok {
		t.Fatal("Pop on empty buffer reported ok")
	}
	// Force many wraps with a small live population.
	next, expect := 0, 0
	for i := 0; i < 1000; i++ {
		for j := 0; j < 3; j++ {
			b.Push(next)
			next++
		}
		for j := 0; j < 3; j++ {
			v, ok := b.Pop()
			if !ok || v != expect {
				t.Fatalf("Pop = %d,%v want %d", v, ok, expect)
			}
			expect++
		}
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after balanced push/pop", b.Len())
	}
	if b.Cap() > minCap {
		t.Fatalf("Cap = %d, grew despite live population <= 3", b.Cap())
	}
}

func TestGrowPreservesOrder(t *testing.T) {
	var b Buffer[int]
	// Misalign head first so growth must re-linearise.
	for i := 0; i < 5; i++ {
		b.Push(i)
	}
	for i := 0; i < 5; i++ {
		b.Pop()
	}
	for i := 0; i < 100; i++ {
		b.Push(i)
	}
	if f, _ := b.Front(); f != 0 {
		t.Fatalf("Front = %d want 0", f)
	}
	for i := 0; i < 100; i++ {
		if got := b.At(i); got != i {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
	for i := 0; i < 100; i++ {
		if v, _ := b.Pop(); v != i {
			t.Fatalf("Pop = %d want %d", v, i)
		}
	}
}

func TestRemoveAtAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b Buffer[int]
	var oracle []int
	next := 0
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(4); {
		case op < 2 || len(oracle) == 0:
			b.Push(next)
			oracle = append(oracle, next)
			next++
		case op == 2:
			i := rng.Intn(len(oracle))
			got := b.RemoveAt(i)
			want := oracle[i]
			oracle = append(oracle[:i], oracle[i+1:]...)
			if got != want {
				t.Fatalf("step %d: RemoveAt(%d) = %d want %d", step, i, got, want)
			}
		default:
			got, _ := b.Pop()
			want := oracle[0]
			oracle = oracle[1:]
			if got != want {
				t.Fatalf("step %d: Pop = %d want %d", step, got, want)
			}
		}
		if b.Len() != len(oracle) {
			t.Fatalf("step %d: Len = %d want %d", step, b.Len(), len(oracle))
		}
		for i, want := range oracle {
			if got := b.At(i); got != want {
				t.Fatalf("step %d: At(%d) = %d want %d", step, i, got, want)
			}
		}
	}
}

func TestPopZeroesSlot(t *testing.T) {
	var b Buffer[*int]
	x := 1
	b.Push(&x)
	b.Pop()
	for _, p := range b.buf {
		if p != nil {
			t.Fatal("Pop retained a pointer")
		}
	}
}
