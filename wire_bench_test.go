package hilight_test

// Wire-codec benchmarks over the Table 1 subset the goldens pin: encode
// and decode throughput for the binary format, with the JSON encoder as
// the baseline and the bytes-per-schedule ratio reported per run.
// The "wire" section of BENCH_route.json keeps a frozen snapshot; run
// them with `make bench-route`.

import (
	"testing"

	"hilight"
)

// wireBenchCases compiles each Table 1 fixture once and returns the
// schedules with their pre-encoded payloads.
func wireBenchCases(b *testing.B) []struct {
	name string
	s    *hilight.Schedule
	bin  []byte
	js   []byte
} {
	b.Helper()
	cases := make([]struct {
		name string
		s    *hilight.Schedule
		bin  []byte
		js   []byte
	}, 0, len(goldenWireBenchmarks))
	for _, name := range goldenWireBenchmarks {
		s := goldenWireSchedule(b, name)
		bin, err := hilight.EncodeScheduleBinary(s)
		if err != nil {
			b.Fatal(err)
		}
		js, err := hilight.EncodeScheduleJSON(s)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			s    *hilight.Schedule
			bin  []byte
			js   []byte
		}{name, s, bin, js})
	}
	return cases
}

func BenchmarkWireEncode(b *testing.B) {
	for _, tc := range wireBenchCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportMetric(float64(len(tc.bin)), "bin_B")
			b.ReportMetric(float64(len(tc.js)), "json_B")
			b.ReportMetric(100*float64(len(tc.bin))/float64(len(tc.js)), "pct_of_json")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hilight.EncodeScheduleBinary(tc.s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWireEncodeJSON(b *testing.B) {
	for _, tc := range wireBenchCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hilight.EncodeScheduleJSON(tc.s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWireDecode(b *testing.B) {
	for _, tc := range wireBenchCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hilight.DecodeScheduleBinary(tc.bin); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWireDecodeJSON(b *testing.B) {
	for _, tc := range wireBenchCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hilight.DecodeScheduleJSON(tc.js); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
