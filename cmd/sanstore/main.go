// Command sanstore inspects and extracts binary SAN snapshot timelines
// (the snapstore format).  `sangen -model gplus -stream-out PREFIX`
// packs them: one run writes PREFIX.full.tl and PREFIX.view.tl.
//
// Usage:
//
//	sanstore ls gplus.full.tl
//	sanstore stat gplus.full.tl [-day 98]
//	sanstore extract gplus.full.tl -day 49 [-out day49.san]
//
// ls lists the per-day records; stat reconstructs one day and prints
// its headline metrics; extract writes one reconstructed day in the san
// text format.  Days are 1-based, matching the simulation calendar.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicio"
	"repro/internal/san"
	"repro/internal/snapstore"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	err := run(os.Args[1], os.Args[2:], os.Stdout)
	if err == errUnknownCommand {
		usage()
	}
	os.Exit(exitCode(err))
}

// exitCode maps a run's error to the process exit status: 0 for success
// and -h, 2 for a flag parse error (the flag package already printed it
// with the usage), and 1 for a run failure, printed here.
func exitCode(err error) int {
	var fe flagError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &fe):
		return 2
	}
	fmt.Fprintln(os.Stderr, "sanstore:", err)
	return 1
}

var errUnknownCommand = fmt.Errorf("unknown command")

// flagError marks a command-line parse failure (or -h), so main can
// tell usage errors from run failures.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

// parseFlags parses args with fs, which must use flag.ContinueOnError.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	return nil
}

// run dispatches one subcommand, writing its report to w; main and
// the end-to-end test share this path.
func run(cmd string, args []string, w io.Writer) error {
	switch cmd {
	case "ls":
		return runLs(args, w)
	case "stat":
		return runStat(args, w)
	case "extract":
		return runExtract(args, w)
	default:
		return errUnknownCommand
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  sanstore ls FILE
  sanstore stat FILE [-day N]
  sanstore extract FILE -day N [-out FILE]`)
	os.Exit(2)
}

// openTimeline peels the positional FILE argument off args and loads it.
func openTimeline(name string, args []string) (*snapstore.Timeline, []string, error) {
	if len(args) == 0 || len(args[0]) == 0 || args[0][0] == '-' {
		return nil, nil, fmt.Errorf("%s: missing timeline file argument", name)
	}
	tl, err := snapstore.LoadFile(args[0])
	if err != nil {
		return nil, nil, err
	}
	return tl, args[1:], nil
}

func runLs(args []string, w io.Writer) error {
	tl, _, err := openTimeline("ls", args)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s %10s %s\n", "day", "bytes", "kind")
	for i := 0; i < tl.NumDays(); i++ {
		kind := "delta"
		if i == 0 {
			kind = "snapshot"
		}
		fmt.Fprintf(w, "%6d %10d %s\n", i+1, tl.DaySize(i), kind)
	}
	fmt.Fprintf(w, "total  %10d bytes over %d days\n", tl.Size(), tl.NumDays())
	return nil
}

func runStat(args []string, w io.Writer) error {
	tl, rest, err := openTimeline("stat", args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("stat", flag.ContinueOnError)
	day := fs.Int("day", 0, "1-based day to reconstruct (default: last)")
	if err := parseFlags(fs, rest); err != nil {
		return err
	}
	g, d, err := reconstruct(tl, *day)
	if err != nil {
		return err
	}
	st := g.Stats()
	fmt.Fprintf(w, "day               %d of %d\n", d, tl.NumDays())
	fmt.Fprintf(w, "social nodes      %d\n", st.SocialNodes)
	fmt.Fprintf(w, "social links      %d\n", st.SocialLinks)
	fmt.Fprintf(w, "attribute nodes   %d\n", st.AttrNodes)
	fmt.Fprintf(w, "attribute links   %d\n", st.AttrLinks)
	fmt.Fprintf(w, "reciprocity       %.4f\n", g.Reciprocity())
	fmt.Fprintf(w, "social density    %.3f\n", g.SocialDensity())
	fmt.Fprintf(w, "attribute density %.3f\n", g.AttrDensity())
	return nil
}

func runExtract(args []string, w io.Writer) error {
	tl, rest, err := openTimeline("extract", args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("extract", flag.ContinueOnError)
	day := fs.Int("day", 0, "1-based day to reconstruct (default: last)")
	out := fs.String("out", "", "output san text file (default stdout)")
	if err := parseFlags(fs, rest); err != nil {
		return err
	}
	g, _, err := reconstruct(tl, *day)
	if err != nil {
		return err
	}
	if *out != "" {
		// Atomic temp+rename with close errors propagated: a full disk
		// used to surface only as a silently truncated file, because
		// the deferred Close error went nowhere.
		return atomicio.WriteFile(*out, func(dst io.Writer) error {
			_, err := g.WriteTo(dst)
			return err
		})
	}
	_, err = g.WriteTo(w)
	return err
}

// reconstruct maps the 1-based CLI day (0 meaning "last") onto the
// timeline and rebuilds that day's SAN.
func reconstruct(tl *snapstore.Timeline, day int) (*san.SAN, int, error) {
	if day == 0 {
		day = tl.NumDays()
	}
	if day < 1 || day > tl.NumDays() {
		return nil, 0, fmt.Errorf("day %d out of range [1,%d]", day, tl.NumDays())
	}
	g, err := tl.ReconstructAt(day - 1)
	return g, day, err
}
