//go:build !race

package maimon

const raceEnabled = false
