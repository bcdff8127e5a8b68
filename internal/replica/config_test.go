package replica

import "testing"

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"ok", Config{N: 3, VoteThreshold: 2}, true},
		{"too many", Config{N: maxReplicas + 1}, false},
		{"negative threshold", Config{N: 2, VoteThreshold: -1}, false},
		{"negative tolerance", Config{N: 2, VoteTolerance: -0.5}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
