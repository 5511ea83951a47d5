package orphan // flagged: nothing imports it

func Unused() int { return 1 }
