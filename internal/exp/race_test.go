//go:build race

package exp

func init() { raceEnabled = true }
