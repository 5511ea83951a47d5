// Package orphanpkg is the production importer of the orphanpkg fixture:
// internal/used has this caller, internal/orphan has none, and
// internal/testonly is imported only from a test file, which does not
// count.
package orphanpkg

import "fixture/orphanpkg/internal/used"

func Run() int { return used.Answer() }
