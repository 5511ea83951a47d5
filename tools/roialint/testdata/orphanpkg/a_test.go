package orphanpkg

import (
	"testing"

	"fixture/orphanpkg/internal/testonly"
)

func TestHelper(t *testing.T) { _ = testonly.Helper() }
