package bench

import "testing"

func TestRefAllocatesNothing(t *testing.T) {
	r := NewRef()
	if n := testing.AllocsPerRun(200, func() { r.Unit() }); n != 0 {
		t.Fatalf("reference kernel allocates %v objects per unit, want 0", n)
	}
}

func BenchmarkRefUnit(b *testing.B) {
	r := NewRef()
	for i := 0; i < b.N; i++ {
		r.Unit()
	}
}
