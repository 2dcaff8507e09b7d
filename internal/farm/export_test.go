package farm

// CheckGolden lets the external test package diff against testdata
// goldens under the same -update flag.
var CheckGolden = checkGolden
