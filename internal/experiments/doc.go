// Package experiments reproduces the paper's evaluation (§5) and the
// scenarios grown from its future-work section (§7) on the simulated
// cluster. Every experiment is the same shape at a different size:
// prime a repository with one base image, reset the counters, launch
// n staggered instances through the middleware, read the clocks and
// the traffic. The package is built in that order:
//
//   - a layout (layout.go) declares where a scenario's nodes sit — the
//     paper's aggregated pool, a dedicated pool, per-zone blocks, racks;
//   - newEnv (env.go) turns a layout and an Approach into a primed
//     simulation with an orchestrator (NewEnv is the paper's setup);
//   - a scenario (RunFig4 … RunSync) is defaults → layout → options →
//     run. A scenario takes Params and only what a caller varies: the
//     crowd and churn families take one configuration value each (Crowd,
//     ChurnConfig), fill in its defaults in one place, and embed the
//     filled value in the record they return, so a record carries the
//     configuration it ran; multisnapshot takes an instance count, and
//     sync nothing more. What never varies is a constant of the
//     scenario's file, and what Params holds is read from Params. A
//     crowd scenario also fixes the fields a caller may not set
//     (Crowd.shaped) and rejects a crowd that sets one. The four crowd
//     scenarios share that value, one environment builder, one
//     measured phase and one record (Crowd, crowdEnv, deployCrowd and
//     CrowdPoint, crowd.go);
//   - a scenario's table is a list of columns, each a header and the
//     func that renders one record's cell (col), and table (suite.go)
//     renders any such list: the columns the crowd tables share sit
//     beside CrowdPoint, and sweepPanel lays out Fig. 4 and Fig. 5;
//   - Suite (suite.go) lists the scenarios with the tables each prints,
//     each table a title, the records and a column list passed to
//     table; Scenario.Fprint prints them: cmd/vmdeploy runs it and
//     testdata/golden pins it. Every scenario, the paper's figures
//     included, declares its tables there and nowhere else: a record
//     holds what its run measured, and no result type renders itself.
package experiments
