package place

// ScanInRow exposes the row-search oracle to the external test package.
var ScanInRow = scanInRow
