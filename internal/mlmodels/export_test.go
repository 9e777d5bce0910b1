package mlmodels

// Counts reports the presorts made, the forest trees grown and the plain
// trees grown by every fit in this test binary so far.
func Counts() (presortsMade, forestTrees, plainTrees int64) {
	return presorts.Load(), treesGrown.Load(), treeFits.Load()
}
