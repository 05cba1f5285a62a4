//go:build !race

package qasm

import "time"

// hostileTimeBound is how long TestParseHostileBodiesSubprocess lets a
// hostile body take to end in its error.
const hostileTimeBound = 3 * time.Second
