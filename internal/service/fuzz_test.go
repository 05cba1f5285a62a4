package service

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// hostileSeeds are request bodies that expand a few bytes into unbounded
// work before admission unless the request bounds hold: a register too
// wide to compile, the same register broadcast, ten broadcasts, a wide
// magic-state factory and one past maxDim.
var hostileSeeds = []string{
	`{"qasm":"OPENQASM 2.0;\nqreg q[1000000];\n"}`,
	`{"qasm":"OPENQASM 2.0;\nqreg q[1000000];\nh q;\n"}`,
	`{"qasm":"OPENQASM 2.0;\nqreg q[1000000];\n` + strings.Repeat(`h q;\n`, 10) + `"}`,
	`{"benchmark":"QFT-16","grid":{"factory_w":200,"factory_h":1}}`,
	`{"benchmark":"QFT-16","grid":{"factory_w":100000,"factory_h":1}}`,
}

// FuzzDigestCompile fuzzes the request edge every node and coordinator
// runs before admission (strict decode, compileRequest.build,
// Fingerprint): any body ends in a fingerprint or in an error that
// HTTPStatus maps to 400, and never panics. Run the seed corpus with
// `go test`; extend with `go test -fuzz=FuzzDigestCompile`.
func FuzzDigestCompile(f *testing.F) {
	seeds := append([]string{
		`{`,
		`{}`,
		`{"benchmark":"QFT-16"}`,
		`{"benchmark":"QFT-16","method":"hilight-map-parallel","seed":3,"qco":true,"compact":true}`,
		`{"qasm":"OPENQASM 2.0;\nqreg q[3];\nh q;\ncx q[0],q[1];\n","grid":{"kind":"square"}}`,
		`{"benchmark":"QFT-16","grid":{"w":5,"h":4}}`,
		`{"benchmark":"QFT-16","grid":{"kind":"square","factory_w":2,"factory_h":2}}`,
		`{"benchmark":"QFT-16","defects":{"tiles":[0],"vertices":[3],"channels":[[0,1]]}}`,
		`{"benchmark":"QFT-16","fallback":["autobraid-sp"],"timeout_ms":5,"no_cache":true}`,
		`{"benchmark":"QFT-16","route_workers":2}`,
		`{"qasm":"x","benchmark":"QFT-16"}`,
	}, hostileSeeds...)
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fp, err := DigestCompile(body)
		if err != nil {
			if status, msg := HTTPStatus(err); status != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", status, msg)
			}
			return
		}
		if len(fp) != 64 {
			t.Fatalf("fingerprint %q", fp)
		}
	})
}

// TestDigestHostileBodiesPromptly holds the request edge to a time
// budget on the hostile bodies: each digests or fails within a second.
// A factory search that built one grid per candidate tile count would
// spend seconds and gigabytes on the 200-wide factory alone.
func TestDigestHostileBodiesPromptly(t *testing.T) {
	for _, body := range hostileSeeds {
		t0 := time.Now()
		_, err := DigestCompile([]byte(body))
		if took := time.Since(t0); took > time.Second {
			t.Errorf("%s: took %v (err %v)", body, took, err)
		}
	}
}
