//go:build race

package qasm

import "time"

// hostileTimeBound is how long TestParseHostileBodiesSubprocess lets a
// hostile body take to end in its error. The race detector slows the
// child's lexing and evaluation about tenfold.
const hostileTimeBound = 30 * time.Second
