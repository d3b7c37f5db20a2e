// Command ffdl-cli is the user-facing CLI from Fig. 1: it talks to a
// running ffdl-server over REST.
//
//	ffdl-cli -server http://127.0.0.1:8080 submit -name train1 -user alice \
//	    -framework Caffe -model VGG-16 -learners 2 -gpus 1 -gputype K80 \
//	    -iterations 1000 -data datasets -prefix demo/
//	ffdl-cli status <jobID> [-follow]
//	ffdl-cli list [-user alice]
//	ffdl-cli logs <jobID> [-search iteration] [-follow [-from offset]]
//	ffdl-cli halt|resume|terminate <jobID>
//	ffdl-cli trace <jobID> [-chrome]
//	ffdl-cli metrics
//	ffdl-cli cluster
//	ffdl-cli quota get -user alice
//	ffdl-cli quota set -user alice -tier paid -gpus 8
//	ffdl-cli quota list
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"os"

	"github.com/ffdl/ffdl"
	"github.com/ffdl/ffdl/internal/perf"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:8080", "ffdl-server base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "submit":
		submit(*server, rest)
	case "status":
		needID(rest)
		fs := flag.NewFlagSet("status", flag.ExitOnError)
		follow := fs.Bool("follow", false, "stream status transitions until the job terminates")
		fs.Parse(rest[1:]) //nolint:errcheck
		if *follow {
			followNDJSON(*server+"/v1/jobs/"+rest[0]+"/watch", func(e ffdl.StatusEntry) {
				fmt.Printf("%s %-12s %s\n", e.Time.Format("15:04:05.000"), e.Status, e.Message)
			})
			return
		}
		status(*server + "/v1/jobs/" + rest[0])
	case "list":
		fs := flag.NewFlagSet("list", flag.ExitOnError)
		user := fs.String("user", "", "filter by user")
		fs.Parse(rest) //nolint:errcheck
		get(*server + "/v1/jobs?user=" + *user)
	case "logs":
		needID(rest)
		fs := flag.NewFlagSet("logs", flag.ExitOnError)
		search := fs.String("search", "", "substring filter")
		follow := fs.Bool("follow", false, "stream lines live as learners emit them")
		from := fs.Uint64("from", 0, "with -follow: resume from this line offset")
		fs.Parse(rest[1:]) //nolint:errcheck
		url := *server + "/v1/jobs/" + rest[0] + "/logs"
		if *follow {
			// Each line is prefixed with its commit-log offset, the resume
			// token: rerun with -from <last offset + 1> after a disconnect
			// to pick up exactly where the stream left off.
			followNDJSON(fmt.Sprintf("%s?follow=1&from=%d", url, *from), func(l ffdl.LogLine) {
				fmt.Printf("%8d %s learner-%d %s\n", l.Offset, l.Time.Format("15:04:05.000"), l.Learner, l.Text)
			})
			return
		}
		if *search != "" {
			url += "?search=" + neturl.QueryEscape(*search)
		}
		logs(url)
	case "halt", "resume", "terminate":
		needID(rest)
		post(*server + "/v1/jobs/" + rest[0] + "/" + cmd)
	case "trace":
		needID(rest)
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		chrome := fs.Bool("chrome", false, "emit Chrome trace-event JSON (load in chrome://tracing or Perfetto)")
		fs.Parse(rest[1:]) //nolint:errcheck
		url := *server + "/v1/jobs/" + rest[0] + "/trace"
		if *chrome {
			raw(url + "?format=chrome")
			return
		}
		get(url)
	case "metrics":
		raw(*server + "/v1/metrics")
	case "cluster":
		get(*server + "/v1/cluster")
	case "quota":
		quota(*server, rest)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ffdl-cli [-server URL] submit|status|list|logs|halt|resume|terminate|trace|metrics|cluster|quota ...")
	os.Exit(2)
}

// quota manages tenant quotas: get/set/list.
func quota(server string, rest []string) {
	if len(rest) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ffdl-cli quota get|set|list ...")
		os.Exit(2)
	}
	switch rest[0] {
	case "get":
		fs := flag.NewFlagSet("quota get", flag.ExitOnError)
		user := fs.String("user", "", "tenant user")
		fs.Parse(rest[1:]) //nolint:errcheck
		if *user == "" {
			fmt.Fprintln(os.Stderr, "ffdl-cli: quota get needs -user")
			os.Exit(2)
		}
		get(server + "/v1/tenants/" + *user)
	case "set":
		fs := flag.NewFlagSet("quota set", flag.ExitOnError)
		user := fs.String("user", "", "tenant user")
		tier := fs.String("tier", "", "free or paid (omitted: keep the tenant's current tier)")
		gpus := fs.Int("gpus", -1, "GPU quota ceiling (omitted: keep the tenant's current quota)")
		fs.Parse(rest[1:]) //nolint:errcheck
		if *user == "" {
			fmt.Fprintln(os.Stderr, "ffdl-cli: quota set needs -user")
			os.Exit(2)
		}
		// Send only the flags that were given: the server merges them
		// with the existing record atomically, so a bare "-gpus" bump
		// never promotes a free tenant and a bare "-tier" change never
		// wipes the quota.
		patch := map[string]any{}
		if *tier != "" {
			patch["tier"] = *tier
		}
		if *gpus >= 0 {
			patch["gpus"] = *gpus
		}
		if len(patch) == 0 {
			fmt.Fprintln(os.Stderr, "ffdl-cli: quota set needs -tier and/or -gpus")
			os.Exit(2)
		}
		body, err := json.Marshal(patch)
		if err != nil {
			die(err)
		}
		req, err := http.NewRequest(http.MethodPut, server+"/v1/tenants/"+*user, bytes.NewReader(body))
		if err != nil {
			die(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			die(err)
		}
		defer resp.Body.Close()
		prettyPrint(resp.Body)
	case "list":
		get(server + "/v1/tenants")
	default:
		fmt.Fprintln(os.Stderr, "usage: ffdl-cli quota get|set|list ...")
		os.Exit(2)
	}
}

func needID(rest []string) {
	if len(rest) == 0 {
		fmt.Fprintln(os.Stderr, "ffdl-cli: job id required")
		os.Exit(2)
	}
}

func submit(server string, rest []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var m ffdl.Manifest
	fs.StringVar(&m.Name, "name", "", "job name")
	fs.StringVar(&m.User, "user", "", "owner")
	framework := fs.String("framework", "Caffe", "Caffe or TensorFlow")
	model := fs.String("model", "VGG-16", "VGG-16, Resnet-50 or InceptionV3")
	fs.IntVar(&m.Learners, "learners", 1, "number of learners")
	fs.IntVar(&m.GPUsPerLearner, "gpus", 1, "GPUs per learner")
	gpuType := fs.String("gputype", "K80", "K80, P100 or V100")
	fs.IntVar(&m.Iterations, "iterations", 1000, "training iterations")
	fs.IntVar(&m.CheckpointEvery, "checkpoint-every", 100, "checkpoint interval (iterations)")
	fs.StringVar(&m.DataBucket, "data", "datasets", "training data bucket")
	fs.StringVar(&m.DataPrefix, "prefix", "demo/", "training data key prefix")
	fs.StringVar(&m.ResultBucket, "results", "", "result bucket (default ffdl-results)")
	fs.StringVar(&m.Command, "command", "python train.py", "user training command")
	fs.Parse(rest) //nolint:errcheck
	m.Framework = perfFramework(*framework)
	m.Model = perfModel(*model)
	m.GPUType = perfGPU(*gpuType)

	body, err := json.Marshal(m)
	if err != nil {
		die(err)
	}
	resp, err := http.Post(server+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		die(err)
	}
	defer resp.Body.Close()
	io.Copy(os.Stdout, resp.Body) //nolint:errcheck
	fmt.Println()
}

func perfFramework(s string) perf.Framework {
	switch s {
	case "TensorFlow", "tensorflow", "tf":
		return ffdl.TensorFlow
	default:
		return ffdl.Caffe
	}
}

func perfModel(s string) perf.Model {
	switch s {
	case "Resnet-50", "resnet50", "resnet-50":
		return ffdl.ResNet50
	case "InceptionV3", "inceptionv3", "inception":
		return ffdl.InceptionV3
	default:
		return ffdl.VGG16
	}
}

func perfGPU(s string) perf.GPUType {
	switch s {
	case "P100", "p100":
		return ffdl.P100
	case "V100", "v100":
		return ffdl.V100
	default:
		return ffdl.K80
	}
}

func get(url string) {
	resp, err := http.Get(url)
	if err != nil {
		die(err)
	}
	defer resp.Body.Close()
	prettyPrint(resp.Body)
}

// raw streams a non-JSON (or pre-rendered JSON) body to stdout
// verbatim: the Prometheus text exposition and the Chrome trace-event
// payload are meant for files and scrapers, not re-indenting.
func raw(url string) {
	resp, err := http.Get(url)
	if err != nil {
		die(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		prettyPrint(resp.Body)
		os.Exit(1)
	}
	io.Copy(os.Stdout, resp.Body) //nolint:errcheck
}

func post(url string) {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		die(err)
	}
	defer resp.Body.Close()
	prettyPrint(resp.Body)
}

// status prints a job's status: the full JSON reply on stdout (the
// scriptable surface, unchanged from before queue positions existed)
// plus a one-line human summary on stderr — a queued job shows its
// dispatch position as QUEUED(pos=N).
func status(url string) {
	resp, err := http.Get(url)
	if err != nil {
		die(err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		die(err)
	}
	var reply struct {
		JobID    string
		Status   string
		QueuePos int
	}
	if err := json.Unmarshal(raw, &reply); err == nil && reply.Status != "" {
		if reply.Status == string(ffdl.StatusQueued) && reply.QueuePos > 0 {
			fmt.Fprintf(os.Stderr, "%s: %s(pos=%d)\n", reply.JobID, reply.Status, reply.QueuePos)
		} else {
			fmt.Fprintf(os.Stderr, "%s: %s\n", reply.JobID, reply.Status)
		}
	}
	out, err := json.MarshalIndent(json.RawMessage(raw), "", "  ")
	if err != nil {
		die(err)
	}
	fmt.Println(string(out))
}

// followNDJSON shows each item of an NDJSON stream response as it
// arrives, until the server ends the stream.
func followNDJSON[T any](url string, show func(T)) {
	resp, err := http.Get(url)
	if err != nil {
		die(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		prettyPrint(resp.Body)
		os.Exit(1)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var v T
		if err := dec.Decode(&v); err != nil {
			if err == io.EOF {
				return
			}
			die(err)
		}
		show(v)
	}
}

func logs(url string) {
	resp, err := http.Get(url)
	if err != nil {
		die(err)
	}
	defer resp.Body.Close()
	var lines []ffdl.LogLine
	if err := json.NewDecoder(resp.Body).Decode(&lines); err != nil {
		die(err)
	}
	for _, l := range lines {
		fmt.Printf("%s learner-%d %s\n", l.Time.Format("15:04:05.000"), l.Learner, l.Text)
	}
}

func prettyPrint(r io.Reader) {
	var v any
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		die(err)
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		die(err)
	}
	fmt.Println(string(out))
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "ffdl-cli: %v\n", err)
	os.Exit(1)
}
