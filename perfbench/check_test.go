package main

import (
	"bytes"
	"math"
	"testing"
)

func TestOutputCheckRejectsPerturbedAnswer(t *testing.T) {
	answer := []byte(`{"lease_id":1,"outputs":[[0.125,-0.5],[0.25,1]],"batch_size":3,"stream":0,"queue_wait_ns":1200,"batch_stats":{"instructions":9}}`)
	solo := []byte(`[[0.125,-0.5],[0.25,1]]`)
	if !sameOutputs(answer, solo) {
		t.Fatal("identical outputs rejected")
	}
	// Batching and timing fields may differ from the solo answer.
	other := bytes.Replace(answer, []byte(`"batch_size":3`), []byte(`"batch_size":8`), 1)
	other = bytes.Replace(other, []byte(`1200`), []byte(`99`), 1)
	if !sameOutputs(other, solo) {
		t.Error("answer with other batching fields rejected")
	}
	perturbed := bytes.Replace(answer, []byte(`0.25`), []byte(`0.2500000000000001`), 1)
	if sameOutputs(perturbed, solo) {
		t.Error("perturbed outputs accepted")
	}
	if sameOutputs([]byte(`{"error":"rms: serving queue full"}`), solo) {
		t.Error("error body accepted")
	}
}

func TestBitsDigest(t *testing.T) {
	a := []float64{0.5, -1.25, 3}
	b := append([]float64(nil), a...)
	if bitsDigest(a) != bitsDigest(b) {
		t.Fatal("equal vectors digest differently")
	}
	b[1] = math.Nextafter(b[1], 0)
	if bitsDigest(a) == bitsDigest(b) {
		t.Error("vector one ulp off digests the same")
	}
	if bitsDigest(a) == bitsDigest(a[:2]) {
		t.Error("shorter vector digests the same")
	}
	if bitsDigest([]float64{0}) == bitsDigest([]float64{math.Copysign(0, -1)}) {
		t.Error("-0 digests as +0")
	}
}
