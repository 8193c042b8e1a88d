// Package fixbadallow exercises annotation validation: an allow without a
// reason is itself a diagnostic, and does not suppress the violation.
package fixbadallow

func bad(m map[int]int) int {
	n := 0
	//gclint:allow maprange
	for _, v := range m {
		n += v
	}
	return n
}

// bareDoc's allow sits in its doc comment, where it would cover the whole
// function, but gives no reason: it is malformed, and the range stays a
// finding.
//
//gclint:allow maprange
func bareDoc(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
