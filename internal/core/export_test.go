package core

// The reflection codec kept as oracle, for the tests in package
// core_test (which can import experiments).
var (
	OracleEncode = oracleEncode
	OracleDecode = oracleDecode
	OracleValue  = oracleValue
	SameValue    = sameValue
)

// MemoryArtifacts returns the memory tier's entries, by key, as the
// artifacts a disk tier was written from.
func MemoryArtifacts(c *ContractCache) map[string]*Artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*Artifact, len(c.byKey))
	for k, e := range c.byKey {
		out[k] = &Artifact{Key: k, Contract: e.ct, Paths: e.paths}
	}
	return out
}

// The string-keyed classifier kept as the compiled classifier's oracle.
type OracleClassifier = oracleClassifier

var NewOracleClassifier = newOracleClassifier
