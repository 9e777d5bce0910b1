package mlmodels

// Counts reports the presorts made and the forest trees grown by every fit
// in this test binary so far.
func Counts() (presortsMade, forestTrees int64) { return presorts.Load(), treesGrown.Load() }
