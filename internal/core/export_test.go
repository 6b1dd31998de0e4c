package core

// The reflection codec kept as oracle, for the tests in package
// core_test (which can import experiments).
var (
	OracleEncode = oracleEncode
	OracleDecode = oracleDecode
)

// The string-keyed classifier kept as the compiled classifier's oracle.
type OracleClassifier = oracleClassifier

var NewOracleClassifier = newOracleClassifier
