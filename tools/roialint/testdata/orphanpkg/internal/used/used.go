package used

func Answer() int { return 42 }
