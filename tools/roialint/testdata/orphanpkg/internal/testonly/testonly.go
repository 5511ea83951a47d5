package testonly // flagged: only a test file imports it

func Helper() int { return 2 }
