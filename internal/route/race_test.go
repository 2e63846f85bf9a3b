//go:build race

package route

func init() { raceEnabled = true }
