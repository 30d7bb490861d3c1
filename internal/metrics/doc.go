// Package metrics provides the small statistics and table-formatting
// helpers the experiment harness uses to print the paper's figures as
// text tables.
package metrics
