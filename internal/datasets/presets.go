package datasets

import (
	"fmt"
	"strings"
)

// Table I of the paper:
//
//	Dataset  Vertices   Edges        Attr  Classes
//	PPI      14,755     225,270      50    121 (multi)
//	Reddit   232,965    11,606,919   602   41  (single)
//	Yelp     716,847    6,977,410    300   100 (multi)
//	Amazon   1,598,960  132,169,734  200   107 (multi)
//
// Preset returns a Config whose vertex and edge budgets are the Table I
// numbers multiplied by scale (attribute and class counts are kept at
// their full values so the compute kernels see the paper's shapes).
// scale = 1 reproduces the full sizes; the default used by tests and
// benches is much smaller so runs complete on modest hosts.
func Preset(name string, scale float64) (Config, error) {
	if scale <= 0 {
		return Config{}, fmt.Errorf("datasets: scale must be positive, got %v", scale)
	}
	var cfg Config
	switch strings.ToLower(name) {
	case "ppi":
		cfg = Config{
			Name: "ppi", Vertices: 14755, TargetEdges: 225270,
			FeatureDim: 50, NumClasses: 121, MultiLabel: true,
			Homophily: 0.7, PowerLawExp: 2.5, NoiseStd: 0.35, Seed: 101,
		}
	case "reddit":
		cfg = Config{
			Name: "reddit", Vertices: 232965, TargetEdges: 11606919,
			FeatureDim: 602, NumClasses: 41, MultiLabel: false,
			Homophily: 0.8, PowerLawExp: 2.2, NoiseStd: 2.4, Seed: 102,
		}
	case "yelp":
		cfg = Config{
			Name: "yelp", Vertices: 716847, TargetEdges: 6977410,
			FeatureDim: 300, NumClasses: 100, MultiLabel: true,
			Homophily: 0.75, PowerLawExp: 2.4, NoiseStd: 0.45, Seed: 103,
		}
	case "amazon":
		cfg = Config{
			Name: "amazon", Vertices: 1598960, TargetEdges: 132169734,
			FeatureDim: 200, NumClasses: 107, MultiLabel: true,
			// The paper singles Amazon out as highly skewed (degree
			// cap discussion, Section VI-C2); use a heavier tail.
			Homophily: 0.7, PowerLawExp: 2.05, NoiseStd: 0.45, Seed: 104,
		}
	default:
		return Config{}, fmt.Errorf("datasets: unknown preset %q (want ppi|reddit|yelp|amazon)", name)
	}
	if scale != 1 {
		cfg.Vertices = max(int(float64(cfg.Vertices)*scale), cfg.NumClasses*4)
		cfg.TargetEdges = int64(float64(cfg.TargetEdges) * scale)
		minEdges := int64(cfg.Vertices) * 4
		if cfg.TargetEdges < minEdges {
			cfg.TargetEdges = minEdges
		}
	}
	return cfg, nil
}

// PresetNames lists the available presets in Table I order.
func PresetNames() []string { return []string{"ppi", "reddit", "yelp", "amazon"} }
