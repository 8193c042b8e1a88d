// Package fixgctest exercises the gctest row: outside tests only the crash
// matrix's reference runs import the torture driver.
package fixgctest

import (
	"repligc/internal/gctest"

	//gclint:allow gctest -- fixture: a reference-run harness, like the crash matrix's
	ref "repligc/internal/gctest"

	// A spelling a grep for the quoted path cannot see: a raw string.
	raw `repligc/internal/gctest`
)

var _, _, _ = gctest.NewDriver, ref.NewDriver, raw.NewDriver
