package relation

// Exported for the tests of package relation_test, which build their
// inputs with datagen (which imports relation).
var (
	ParseCSV     = parseCSV
	ReadCSVRef   = readCSVRef
	SameEncoding = sameEncoding
	SameRead     = sameRead
)
