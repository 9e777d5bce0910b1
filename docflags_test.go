package coda_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// docCommand is one invocation of a shipped binary that a document shows:
// where it is, which binary (with its subcommand, for coda-client) and the
// flags written on it.
type docCommand struct {
	where string // file:line
	bin   string // "coda-server", "coda-client search", "coda-bench"
	flags []string
}

var (
	docBinary = regexp.MustCompile(`(?:^|[\s/])(coda-server|coda-client|coda-bench)\b`)
	subcmds   = regexp.MustCompile(`usage: coda-client <([a-z|]+)>`)
	docFlag   = regexp.MustCompile(`^-{1,2}([a-z][a-z0-9-]*)(?:=.*)?$`)
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	helpFlag  = regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9-]*)\b`)
)

// docCommands returns every command line in a markdown file: each line of a
// fenced code block, with backslash continuations joined, and each inline
// code span. coda-client counts as invoked only with one of subs after it.
func docCommands(t *testing.T, path string, subs map[string]bool) []docCommand {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cmds []docCommand
	fenced, pending, pendingLine := false, "", 0
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				cmds = append(cmds, parseCommands(path, n, m[1], subs)...)
			}
			continue
		}
		if pending == "" {
			pendingLine = n
		}
		if cont, ok := strings.CutSuffix(line, `\`); ok {
			pending += cont + " "
			continue
		}
		cmds = append(cmds, parseCommands(path, pendingLine, pending+line, subs)...)
		pending = ""
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cmds
}

// parseCommands finds each binary invocation on one command line and the
// flags that follow it, up to a comment, a pipe, a command separator or the
// next binary.
func parseCommands(path string, line int, text string, subs map[string]bool) []docCommand {
	var cmds []docCommand
	where := fmt.Sprintf("%s:%d", path, line)
	locs := docBinary.FindAllStringSubmatchIndex(text, -1)
	for i, loc := range locs {
		end := len(text)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		cmd := docCommand{where: where, bin: text[loc[2]:loc[3]]}
		fields := strings.Fields(text[loc[3]:end])
		if cmd.bin == "coda-client" {
			if len(fields) == 0 || !subs[fields[0]] {
				continue
			}
			cmd.bin += " " + fields[0]
			fields = fields[1:]
		}
		for _, f := range fields {
			if strings.HasPrefix(f, "#") || f == "|" || f == "&&" || f == ";" {
				break
			}
			if m := docFlag.FindStringSubmatch(f); m != nil {
				cmd.flags = append(cmd.flags, m[1])
			}
		}
		cmds = append(cmds, cmd)
	}
	return cmds
}

// helpFlags runs a binary (and subcommand) with -h and returns the flags
// its usage lists.
func helpFlags(t *testing.T, bins map[string]string, bin string) map[string]bool {
	t.Helper()
	name, sub, _ := strings.Cut(bin, " ")
	args := []string{"-h"}
	if sub != "" {
		args = []string{sub, "-h"}
	}
	// -h exits 0 or 2 depending on the flag set; the usage is what counts.
	out, _ := exec.Command(bins[name], args...).CombinedOutput()
	flags := map[string]bool{}
	for _, m := range helpFlag.FindAllStringSubmatch(string(out), -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		t.Fatalf("%s -h lists no flags:\n%s", bin, out)
	}
	return flags
}

// checkDocFlags is the doc → code half of the flag drift check: every flag
// README.md or DESIGN.md shows on a coda-server, coda-client <subcommand>
// or coda-bench command line is one that binary's -h lists.
func checkDocFlags(t *testing.T, bins map[string]string) {
	usage, _ := exec.Command(bins["coda-client"], "-h").CombinedOutput()
	m := subcmds.FindSubmatch(usage)
	if m == nil {
		t.Fatalf("coda-client -h names no subcommands:\n%s", usage)
	}
	subs := map[string]bool{}
	for _, s := range strings.Split(string(m[1]), "|") {
		subs[s] = true
	}
	known := map[string]map[string]bool{}
	seen := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for _, c := range docCommands(t, doc, subs) {
			if known[c.bin] == nil {
				known[c.bin] = helpFlags(t, bins, c.bin)
			}
			for _, f := range c.flags {
				seen++
				if !known[c.bin][f] {
					t.Errorf("%s: %s shows -%s, which %s -h does not list", c.where, c.bin, f, c.bin)
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no documented flags found: the command-line parser reads nothing")
	}
}
