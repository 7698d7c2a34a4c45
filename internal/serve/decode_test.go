package serve

import (
	"encoding/json"
	"math"
	"testing"

	"tango/internal/core"
)

// decodeSeeds is the seed corpus of FuzzDecodeInferenceRequest: the bodies
// TestHTTPBadRequests posts, whitespace variants, numbers at the edges of
// float32 and uint64, and the shapes the fast decoder must decline.
var decodeSeeds = []string{
	"", "{", `{}`, `null`, `[]`, `{"benchmark":"CifarNet","image":[1,2,3]}`, `{"benchmark":"CifarNet"}`,
	`{"benchmark":"LSTM","history":[]}`, `{"benchmark":"CifarNet","history":[0.5]}`, `{"benchmark":"LSTM","seed":1}`,
	`{"benchmark":"AlexNet","seed":1}`, `{"benchmark":"LSTM","history":[0.25,-1.5e-3,7]}`,
	" {\t\"benchmark\" :\r\n\"CifarNet\" , \"image\" : [ 1 ,\n2.5 , -3e2 ] , \"seed\" : 7 } \n",
	`{"image":[-0,0.0,-0.0e0,1e-46,1e-45,1e39,-1e39,3.4028235e38,3.4028236e38,1e-400,1e400],"benchmark":"x"}`,
	`{"history":[1.7976931348623157e308,1.7976931348623159e308,4.9e-324,2e-324,0.1234567890123456789012345678901234567890]}`,
	`{"image":[1234567890123456789012345678901234567890,0.3333333333333333333333333333333333333333e-5]}`,
	`{"image":[16777217,0.1,1.00000017881393421514957253748434595763683319091796875]}`,
	`{"benchmark":"a","benchmark":"b"}`, `{"image":[1],"image":[2]}`, `{"seed":1,"seed":2}`,
	`{"Benchmark":"CifarNet","IMAGE":[1],"Seed":3}`, `{"benchmark":"CifarNet","extra":1,"image":[1]}`,
	`{"seed":1.0}`, `{"seed":-1}`, `{"seed":-0}`, `{"seed":1e3}`, `{"seed":18446744073709551615}`, `{"seed":18446744073709551616}`,
	`{"seed":01}`, `{"seed":null}`, `{"seed":"1"}`, `{"image":null}`, `{"image":[null]}`, `{"image":[[1]]}`, `{"image":["1"]}`,
	`{"image":[1,]}`, `{"image":[,1]}`, `{"image":[1 2]}`, `{"image":[01]}`, `{"image":[1.]}`, `{"image":[.5]}`, `{"image":[+1]}`,
	`{"image":[1e]}`, `{"image":[1e+]}`, `{"image":[-]}`, `{"image":[0x10]}`, `{"image":[NaN]}`, `{"image":[Infinity]}`, `{"image":[1E+2,1e-2]}`,
	`{"benchmark":"a\nb"}`, `{"benchmark":"a\u0041"}`, `{"benchmark":"café"}`, "{\"benchmark\":\"caf\xc3\xa9\"}", "{\"benchmark\":\"\xff\"}",
	"{\"benchmark\":\"a\tb\"}", "{\"benchmark\":\"a\x7fb\"}", `{"benchmark":"a\"b"}`, `{"benchmark":""}`, `{"benchmark":null}`, `{"benchmark":1}`,
	`{"benchmark":"x"} x`, `{"benchmark":"x"}{}`, `{"benchmark":"x",}`, `{,"benchmark":"x"}`, `{"benchmark" "x"}`, `{"benchmark":"x"`,
	"\xef\xbb\xbf{\"benchmark\":\"x\"}", "{\"benchmark\":\"x\"}\x00", "\v{}", `{"image":[1]]}`, `{"image":[1,2,3,4,5,6,7,8,9`,
}

// sameRequest compares what the fast decoder stored with what json.Unmarshal
// stored: strings and seeds by value, numbers by their bits, nil by nil-ness.
func sameRequest[F float32 | float64](t *testing.T, body []byte, fb, jb string, fv, jv []F, fs, js *uint64) {
	t.Helper()
	ok := fb == jb && len(fv) == len(jv) && (fv == nil) == (jv == nil) && (fs == nil) == (js == nil) && (fs == nil || *fs == *js)
	for i := 0; ok && i < len(fv); i++ {
		ok = math.Float64bits(float64(fv[i])) == math.Float64bits(float64(jv[i]))
	}
	if !ok {
		t.Fatalf("body %q: fast decoder stored (%q, %v, %v), encoding/json (%q, %v, %v)", body, fb, fv, fs, jb, jv, js)
	}
}

// FuzzDecodeInferenceRequest: whatever bytes arrive, a body the fast decoder
// accepts is one json.Unmarshal accepts, into the same request bit for bit;
// a body it declines is left for json.Unmarshal with the request untouched.
func FuzzDecodeInferenceRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fc, jc classifyRequest
		if fc.decodeFast(body) {
			if err := json.Unmarshal(body, &jc); err != nil {
				t.Fatalf("classify body %q: fast decoder accepted, encoding/json: %v", body, err)
			}
			sameRequest(t, body, fc.Benchmark, jc.Benchmark, fc.Image, jc.Image, fc.Seed, jc.Seed)
		} else if fc.Benchmark != "" || fc.Image != nil || fc.Seed != nil {
			t.Fatalf("classify body %q: declined but stored %+v", body, fc)
		}
		var ff, jf forecastRequest
		if ff.decodeFast(body) {
			if err := json.Unmarshal(body, &jf); err != nil {
				t.Fatalf("forecast body %q: fast decoder accepted, encoding/json: %v", body, err)
			}
			sameRequest(t, body, ff.Benchmark, jf.Benchmark, ff.History, jf.History, ff.Seed, jf.Seed)
		} else if ff.Benchmark != "" || ff.History != nil || ff.Seed != nil {
			t.Fatalf("forecast body %q: declined but stored %+v", body, ff)
		}
	})
}

// canonicalClassifyBody is the body tango-loadtest and the repository
// benchmark post: json.Marshal of a map holding a CifarNet sample image.
func canonicalClassifyBody(tb testing.TB) []byte {
	tb.Helper()
	b, err := core.Load("CifarNet")
	if err != nil {
		tb.Fatal(err)
	}
	image, err := b.SampleInput(1)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"benchmark": "CifarNet", "image": image.Data()})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestCanonicalBodyTakesFastPath: the bodies real clients send are accepted
// by the fast decoder — a decline is always correct, so without this the
// fast path could die silently — and decoding one allocates the image and
// the benchmark name, nothing else.
func TestCanonicalBodyTakesFastPath(t *testing.T) {
	body := canonicalClassifyBody(t)
	var c classifyRequest
	if !c.decodeFast(body) || c.Benchmark != "CifarNet" || len(c.Image) != 3*32*32 || c.Seed != nil {
		t.Fatalf("json.Marshal(map) classify body declined or misread: %q %d %v", c.Benchmark, len(c.Image), c.Seed)
	}
	if cap(c.Image) != len(c.Image) {
		t.Errorf("image capacity %d for %d elements: the comma count should size it exactly", cap(c.Image), len(c.Image))
	}
	for name, b := range map[string]string{
		"seed classify": `{"benchmark":"CifarNet","seed":7}`,
		"indented":      "{\n  \"benchmark\": \"CifarNet\",\n  \"image\": [\n    0.5,\n    -1\n  ]\n}\n",
	} {
		if !new(classifyRequest).decodeFast([]byte(b)) {
			t.Errorf("%s body %q declined", name, b)
		}
	}
	var fr forecastRequest
	history, err := json.Marshal(map[string]any{"benchmark": "LSTM", "history": []float64{0.1, -2.5e-7, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !fr.decodeFast(history) || fr.Benchmark != "LSTM" || len(fr.History) != 3 || fr.History[1] != -2.5e-7 {
		t.Fatalf("json.Marshal(map) forecast body declined or misread: %+v", fr)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		var q classifyRequest
		if !q.decodeFast(body) {
			t.Fatal("declined")
		}
	}); allocs > 2 {
		t.Errorf("fast decode of the canonical body: %v allocations, want <= 2 (image, name)", allocs)
	}
}

// BenchmarkDecodeClassifyRequest: the canonical CifarNet body through the
// fast decoder and through encoding/json.
func BenchmarkDecodeClassifyRequest(b *testing.B) {
	body := canonicalClassifyBody(b)
	b.Logf("body: %d bytes", len(body))
	for _, bc := range []struct {
		name   string
		decode func(*classifyRequest) bool
	}{
		{"fast", func(q *classifyRequest) bool { return q.decodeFast(body) }},
		{"encoding-json", func(q *classifyRequest) bool { return json.Unmarshal(body, q) == nil }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var q classifyRequest
				if !bc.decode(&q) {
					b.Fatal("decode failed")
				}
			}
		})
	}
}
