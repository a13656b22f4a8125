package core

// GoldenCases and GoldenConfig hand the dfs_golden.json trees to the
// package's external tests, which run them through the engines built on it.
func GoldenCases() []goldenCase { return goldenCases }

func GoldenConfig(c *goldenCase, runs *[]string) ExplorerConfig { return goldenConfig(c, runs) }

// Fig3Program is the paper's Fig. 3 race, whose flipped match fails.
var Fig3Program = fig3Program

// ExpansionDiff compares the exhaustive expansion of t's run with the
// reference (see expansionDiff) and describes how they differ, or returns "".
func ExpansionDiff(t *SubtreeTask, cfg *ExplorerConfig, trace *RunTrace, build bool) string {
	return expansionDiff(t, cfg, trace, build, &Expansion{})
}
