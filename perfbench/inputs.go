package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"bgpintent/internal/corpus"
	"bgpintent/internal/dict"
	"bgpintent/internal/simulate"
)

// inputs are one run's generated inputs.
type inputs struct {
	wl         workload
	ribs, upds []string
	orgPath    string
	files      []inputFile
	bytes      int64

	// sim is the simulator the MRT files came from; the live path feeds
	// its days as a stream.
	sim *simulate.Simulator
	// truth is the generator's ground-truth dictionary.
	truth *dict.Dictionary
	// tuples are corpus routes sampled for annotate request bodies.
	tuples []annotateTuple
}

type inputFile struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// annotateTuple is one (AS path, communities) route in looking-glass
// notation, as POST /v1/annotate takes it.
type annotateTuple struct {
	Path        string `json:"path"`
	Communities string `json:"communities"`
}

// mrtEpoch is the feed time of day 0 in the generated dumps.
const mrtEpoch = 1714521600

// generate simulates sc.days of BGP data for the workload and writes
// the MRT dumps and the as2org file into dir, the way gencorpus does.
func generate(wl workload, sc scale, seed int64, dir string) (*inputs, error) {
	cfg := corpus.DefaultConfig()
	if sc.name == "tiny" {
		cfg = corpus.TinyConfig()
	}
	cfg.Seed = seed
	cfg.Days = 0 // days are simulated below, one file set at a time
	cfg.NoLargeComms = !wl.largeMatrix
	cfg.LargeMatrix = wl.largeMatrix
	c, err := corpus.Build(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{wl: wl, sim: c.Sim, truth: c.Dict}
	rng := rand.New(rand.NewSource(seed))

	var one *os.File
	var oneBuf *bufio.Writer
	if wl.oneFile {
		path := filepath.Join(dir, "all.rib.mrt")
		if one, err = os.Create(path); err != nil {
			return nil, err
		}
		defer one.Close()
		oneBuf = bufio.NewWriter(one)
		in.ribs = append(in.ribs, path)
	}
	for day := 0; day < sc.days; day++ {
		res := c.Sim.RunDay(day)
		if sc.viewsPerDay > 0 && len(res.Views) > sc.viewsPerDay {
			res.Views = res.Views[:sc.viewsPerDay] // views are prefix-major: whole prefixes drop off
		}
		in.sample(rng, res.Views, sc.annotateTuples/sc.days)
		ts := uint32(mrtEpoch + day*86400)
		for col := 0; col < c.Sim.Collectors(); col++ {
			if wl.oneFile {
				if err := c.Sim.WriteRIB(oneBuf, ts, col, res); err != nil {
					return nil, err
				}
				continue
			}
			rib := filepath.Join(dir, fmt.Sprintf("rc%02d.day%d.rib.mrt", col, day))
			if err := writeFile(rib, func(w io.Writer) error { return c.Sim.WriteRIB(w, ts, col, res) }); err != nil {
				return nil, err
			}
			upd := filepath.Join(dir, fmt.Sprintf("rc%02d.day%d.updates.mrt", col, day))
			if err := writeFile(upd, func(w io.Writer) error { return c.Sim.WriteUpdates(w, ts+3600, col, res, 0.2) }); err != nil {
				return nil, err
			}
			in.ribs = append(in.ribs, rib)
			in.upds = append(in.upds, upd)
		}
	}
	if wl.oneFile {
		if err := oneBuf.Flush(); err != nil {
			return nil, err
		}
		if err := one.Close(); err != nil {
			return nil, err
		}
	}
	in.orgPath = filepath.Join(dir, "as2org.txt")
	if err := writeFile(in.orgPath, func(w io.Writer) error { _, err := c.Orgs.WriteTo(w); return err }); err != nil {
		return nil, err
	}
	for _, p := range append(append(append([]string(nil), in.ribs...), in.upds...), in.orgPath) {
		f, err := digest(p)
		if err != nil {
			return nil, err
		}
		in.files = append(in.files, f)
		in.bytes += f.Bytes
	}
	// Write the inputs (and anything else still dirty, such as fresh
	// build output) back to disk now: background writeback during the
	// measured phases would compete with them for the CPUs.
	syscall.Sync()
	return in, nil
}

// sample keeps up to n of the day's routes that carry communities.
func (in *inputs) sample(rng *rand.Rand, views []simulate.View, n int) {
	for tries := 0; n > 0 && tries < 50*n && len(views) > 0; tries++ {
		v := &views[rng.Intn(len(views))]
		if len(v.Comms)+len(v.LargeComms) == 0 {
			continue
		}
		var path, comms []string
		for _, asn := range v.Path {
			path = append(path, strconv.FormatUint(uint64(asn), 10))
		}
		for _, c := range v.Comms {
			comms = append(comms, c.String())
		}
		for _, lc := range v.LargeComms {
			comms = append(comms, lc.String())
		}
		in.tuples = append(in.tuples, annotateTuple{Path: strings.Join(path, " "), Communities: strings.Join(comms, " ")})
		n--
	}
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func digest(path string) (inputFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return inputFile{}, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return inputFile{}, err
	}
	return inputFile{Name: filepath.Base(path), Bytes: n, SHA256: hex.EncodeToString(h.Sum(nil))}, nil
}
