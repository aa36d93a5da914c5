package pipe

// EntriesBuilt is the number of database entries e has built so far.
func EntriesBuilt(e *Engine) int64 { return e.dbBuilt.Load() }
