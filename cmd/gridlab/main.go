// Command gridlab regenerates every table and figure of the reproduction
// of "Globus and PlanetLab Resource Management Solutions Compared"
// (HPDC-13, 2004). Each command is one experiment in DESIGN.md; `gridlab
// all` runs the full set in order, and results_all.txt at the repository
// root is its committed output. `gridlab` alone lists the commands and
// `gridlab <command> -h` a command's own flags; both are printed from the
// table in commands.go.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
)

// globals are the flags every command accepts, before or after its name.
type globals struct {
	seed                   int64
	workers                int
	cpuProfile, memProfile string
}

// command is one row of the table in commands.go.
type command struct {
	name, desc string
	// inAll marks the experiments `gridlab all` runs.
	inAll bool
	// operand names the one positional operand the command takes, as the
	// usage message shows it; "" means it takes none.
	operand string
	// bind registers the command's own flags on fs and returns the body to
	// run once fs is parsed. The body writes its report to w and nowhere
	// else, and reads its operand, if it was given, from fs.Arg(0).
	bind func(fs *flag.FlagSet, g *globals) func(w io.Writer) error
}

// usageError is a flag combination a command cannot run. It ends like a
// flag that does not parse: the command's usage message and exit status 2.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values, so that tests
// drive the table in-process and the profiles started here are flushed on
// every path out of a command.
func run(args []string, stdout, stderr io.Writer) int {
	var g globals
	top := flag.NewFlagSet("gridlab", flag.ContinueOnError)
	top.SetOutput(stderr)
	top.Int64Var(&g.seed, "seed", 42, "simulation seed (runs are deterministic per seed)")
	top.IntVar(&g.workers, "workers", 1, "sweep fan-out: worker goroutines (0 = GOMAXPROCS; output is identical at any count)")
	top.StringVar(&g.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole command to this `file`")
	top.StringVar(&g.memProfile, "memprofile", "", "write a heap profile to this `file` when the command ends")
	top.Usage = func() {
		fmt.Fprintf(stderr, "usage: gridlab [global flags] <command> [flags]\n\ncommands:\n")
		for _, c := range commands() {
			fmt.Fprintf(stderr, "  %-11s %s\n", c.name, c.desc)
		}
		fmt.Fprintf(stderr, "\nglobal flags, accepted before or after the command name:\n")
		top.PrintDefaults()
		fmt.Fprintf(stderr, "\n`gridlab <command> -h` lists the command's own flags.\n")
	}
	if err := top.Parse(args); err != nil {
		return parseStatus(err)
	}
	if top.NArg() == 0 {
		top.Usage()
		return 2
	}
	cmds := commands()
	i := slices.IndexFunc(cmds, func(c command) bool { return c.name == top.Arg(0) })
	if i < 0 {
		fmt.Fprintf(stderr, "gridlab: unknown command %q\n\n", top.Arg(0))
		top.Usage()
		return 2
	}
	c := cmds[i]

	// The command's set holds its own flags plus the globals, sharing the
	// values parsed so far, so `-seed 7 chaos` and `chaos -seed 7` agree.
	fs := flag.NewFlagSet("gridlab "+c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	top.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	body := c.bind(fs, &g)
	fs.Usage = func() {
		synopsis := c.name
		if c.operand != "" {
			synopsis += " " + c.operand
		}
		fmt.Fprintf(stderr, "usage: gridlab %s [flags]\n  %s\n\nflags:\n", synopsis, c.desc)
		fs.PrintDefaults()
	}
	if err := parseAnyOrder(fs, top.Args()[1:]); err != nil {
		return parseStatus(err)
	}
	if fs.NArg() > 1 || fs.NArg() == 1 && c.operand == "" {
		fmt.Fprintf(stderr, "gridlab %s: unexpected argument %q\n", c.name, fs.Arg(fs.NArg()-1))
		fs.Usage()
		return 2
	}

	stopProfiles, err := startProfiles(g.cpuProfile, g.memProfile)
	if err != nil {
		fmt.Fprintf(stderr, "gridlab: %v\n", err)
		return 1
	}
	code := 0
	if err := body(stdout); err != nil {
		fmt.Fprintf(stderr, "gridlab %s: %v\n", c.name, err)
		code = 1
		if errors.As(err, new(usageError)) {
			fs.Usage()
			code = 2
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(stderr, "gridlab: %v\n", err)
		code = 1
	}
	return code
}

// parseStatus is the exit status for a flag set's parse error, which the
// set has already reported: 0 after -h, 2 otherwise.
func parseStatus(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// parseAnyOrder parses args into fs with operands allowed on either side
// of the flags (`trace fig2 -o F`, `trace -o F fig2`). The flag package
// stops at the first operand, so each one is set aside and parsing resumes
// behind it; the operands end up as fs.Args().
func parseAnyOrder(fs *flag.FlagSet, args []string) error {
	var operands []string
	for {
		if err := fs.Parse(args); err != nil {
			return err
		}
		if fs.NArg() == 0 {
			return fs.Parse(append([]string{"--"}, operands...))
		}
		operands = append(operands, fs.Arg(0))
		args = fs.Args()[1:]
	}
}
