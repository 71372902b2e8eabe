package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"mlvfpga/internal/bfp.(*PackedMatrix).rowDot":  "mlvfpga/internal/bfp",
		"encoding/json.(*encodeState).marshal":         "encoding/json",
		"strconv.AppendFloat":                          "strconv",
		"runtime.memclrNoHeapPointers":                 "runtime",
		"main.main":                                    "main",
		"mlvfpga/internal/rms.(*contEngine).run.func1": "mlvfpga/internal/rms",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"mlvfpga/internal/bfp.(*PackedMatrix).rowDot", "main.main"}, "cpu.bfp"},
		{[]string{"strconv.AppendFloat", "encoding/json.floatEncoder.encode"}, "cpu.codec"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "cpu.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "mlvfpga/internal/accel.New"}, "cpu.other"},
		{[]string{"mlvfpga/internal/tenant.(*Guard).admitNonce"}, "cpu.tenant"},
		{nil, "cpu.other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// pbuf is a minimal protobuf writer for hand-built profiles.
type pbuf struct{ b []byte }

func (p *pbuf) key(field, wire int) { p.b = binary.AppendUvarint(p.b, uint64(field<<3|wire)) }

func (p *pbuf) varint(field int, v uint64) {
	p.key(field, 0)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pbuf) msg(field int, m []byte) {
	p.key(field, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(m)))
	p.b = append(p.b, m...)
}

func (p *pbuf) packed(field int, vs ...uint64) {
	var in []byte
	for _, v := range vs {
		in = binary.AppendUvarint(in, v)
	}
	p.msg(field, in)
}

func TestBucketProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"mlvfpga/internal/bfp.(*PackedMatrix).rowDot", // fn 1
		"main.main",                             // fn 2
		"runtime.scanobject",                    // fn 3
		"runtime.gcBgMarkWorker",                // fn 4
		"mlvfpga/internal/fp16.FromFloat64",     // fn 5
		"mlvfpga/internal/accel.(*Machine).Run", // fn 6
		"runtime.memclrNoHeapPointers",          // fn 7
	}
	var p pbuf
	// Functions 1..7 name strings 5..11; locations 1..6.
	for id := uint64(1); id <= 7; id++ {
		var f pbuf
		f.varint(1, id)
		f.varint(2, id+4)
		p.msg(5, f.b)
	}
	loc := func(id uint64, fns ...uint64) {
		var l pbuf
		l.varint(1, id)
		for _, fn := range fns {
			var line pbuf
			line.varint(1, fn)
			l.msg(4, line.b)
		}
		p.msg(4, l.b)
	}
	loc(1, 1)
	loc(2, 2)
	loc(3, 3)
	loc(4, 4)
	loc(5, 5, 6) // fp16 inlined into accel: leaf first
	loc(6, 7)
	sample := func(value uint64, locs ...uint64) {
		var s pbuf
		s.packed(1, locs...)
		s.packed(2, 1, value)
		p.msg(2, s.b)
	}
	sample(30, 1, 2)    // bfp
	sample(20, 3, 4)    // gc
	sample(40, 6, 1, 2) // memclr leaf: other
	// One sample in the unpacked encoding of repeated fields.
	var s pbuf
	s.varint(1, 5)
	s.varint(1, 2)
	s.varint(2, 1)
	s.varint(2, 10)
	p.msg(2, s.b) // fp16
	for _, str := range strs {
		p.msg(6, []byte(str))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	shares, n, err := bucketProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("%d samples, want 4", n)
	}
	want := map[string]float64{"cpu.bfp": 0.3, "cpu.gc": 0.2, "cpu.other": 0.4, "cpu.fp16": 0.1}
	for _, b := range cpuBuckets {
		if math.Abs(shares[b]-want[b]) > 1e-12 {
			t.Errorf("%s = %v, want %v", b, shares[b], want[b])
		}
	}
	if len(shares) != len(cpuBuckets) {
		t.Errorf("%d buckets, want %d", len(shares), len(cpuBuckets))
	}
}

func TestBucketProfileRejectsGarbage(t *testing.T) {
	if _, _, err := bucketProfile([]byte("not gzip")); err == nil {
		t.Error("non-gzip profile accepted")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0xff}) // field 2, length beyond the buffer
	zw.Close()
	if _, _, err := bucketProfile(gz.Bytes()); err == nil {
		t.Error("truncated protobuf accepted")
	}
}
