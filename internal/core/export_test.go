package core

// GoldenCases and GoldenConfig hand the dfs_golden.json trees to the
// package's external tests, which run them through the engines built on it.
func GoldenCases() []goldenCase { return goldenCases }

func GoldenConfig(c *goldenCase, runs *[]string) ExplorerConfig { return goldenConfig(c, runs) }

// Fig3Program is the paper's Fig. 3 race, whose flipped match fails.
var Fig3Program = fig3Program
